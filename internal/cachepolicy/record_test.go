package cachepolicy

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"apecache/internal/decisionlog"
	"apecache/internal/telemetry"
	"apecache/internal/vclock"
)

// noVictims is a policy that never selects a victim, so every eviction
// falls to the store's LRU fallback.
type noVictims struct{}

func (noVictims) Name() string { return "none" }
func (noVictims) SelectVictims(time.Time, []*Entry, *Entry, int64, *FreqTracker) []*Entry {
	return nil
}

// recordedCounters are the store counters the recorder writes, by metric
// name without the registry prefix.
var recordedCounters = []string{
	"store_insertions_total",
	"store_updates_total",
	"store_blocked_total",
	"store_stale_drops_total",
	`store_evictions_total{cause="capacity"}`,
	`store_evictions_total{cause="expired"}`,
	`store_evictions_total{cause="purged"}`,
	"store_stale_serves_total",
}

// storeBooks snapshots everything the recorder writes.
type storeBooks struct {
	stats    StoreStats
	counters map[string]float64
	events   uint64
	ledger   int
}

func readBooks(s *Store, tel *telemetry.Telemetry, led *decisionlog.Ledger) storeBooks {
	m := tel.Metrics.Expand()
	b := storeBooks{stats: s.Stats(), counters: make(map[string]float64), events: tel.Events.Total()}
	for _, name := range recordedCounters {
		b.counters[name] = m["rec_"+name]
	}
	if led != nil {
		b.ledger = len(led.DomainRecent("t.example", 0))
	}
	return b
}

func statsDelta(a, b StoreStats) StoreStats {
	return StoreStats{
		Insertions:  b.Insertions - a.Insertions,
		Updates:     b.Updates - a.Updates,
		Evictions:   b.Evictions - a.Evictions,
		Expired:     b.Expired - a.Expired,
		Blocked:     b.Blocked - a.Blocked,
		Purged:      b.Purged - a.Purged,
		StaleServes: b.StaleServes - a.StaleServes,
		StaleDrops:  b.StaleDrops - a.StaleDrops,
	}
}

// eventName renders an /events line as its event name, with the cause
// for evictions ("evict/purged").
func eventName(line string) string {
	var name, cause string
	for _, field := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(field, "event="); ok {
			name = v
		}
		if v, ok := strings.CutPrefix(field, "cause="); ok {
			cause = "/" + v
		}
	}
	return name + cause
}

// opName renders a ledger event as its op, marked "+gone" for purges of
// objects the origin deleted.
func opName(ev decisionlog.Event) string {
	if ev.Gone {
		return string(ev.Op) + "+gone"
	}
	return string(ev.Op)
}

// TestRecorderKeepsBooksInStep drives the store through every recorded
// decision, with and without a ledger attached, and checks that the
// StoreStats counts, the telemetry counters, the /events lines and the
// ledger ops each decision leaves behind agree. Without a ledger the
// counts and lines are the same and nothing is ledgered. Ops and event
// names are compared in the order they were recorded.
func TestRecorderKeepsBooksInStep(t *testing.T) {
	const x = "http://t.example/x"
	put := func(s *Store, url, app string, size int, version int64, ttl time.Duration) error {
		o := testObj(url, app, size, 2, ttl)
		o.Version = version
		return s.Put(o, o.Body(), 20*time.Millisecond)
	}
	mustPut := func(t *testing.T, s *Store, url, app string, size int, version int64) {
		t.Helper()
		if err := put(s, url, app, size, version, time.Hour); err != nil {
			t.Fatalf("Put %s: %v", url, err)
		}
	}
	const (
		insert   = "store_insertions_total"
		update   = "store_updates_total"
		blocked  = "store_blocked_total"
		drop     = "store_stale_drops_total"
		capacity = `store_evictions_total{cause="capacity"}`
		expired  = `store_evictions_total{cause="expired"}`
		purged   = `store_evictions_total{cause="purged"}`
		serve    = "store_stale_serves_total"
	)

	cases := []struct {
		name     string
		capacity int64
		policy   func() Policy
		setup    func(t *testing.T, sim *vclock.Sim, s *Store)
		act      func(t *testing.T, sim *vclock.Sim, s *Store)
		stats    StoreStats
		counters map[string]float64
		events   []string
		ops      []string
		// repeat runs the case on that many fresh stores, for orders that
		// a map walk could shuffle from one run to the next.
		repeat int
	}{
		{
			name:  "admit",
			act:   func(t *testing.T, _ *vclock.Sim, s *Store) { mustPut(t, s, x, "a", 1024, 1) },
			stats: StoreStats{Insertions: 1}, counters: map[string]float64{insert: 1},
			ops: []string{"admit"},
		},
		{
			name:  "update",
			setup: func(t *testing.T, _ *vclock.Sim, s *Store) { mustPut(t, s, x, "a", 1024, 1) },
			act:   func(t *testing.T, _ *vclock.Sim, s *Store) { mustPut(t, s, x, "a", 1024, 1) },
			stats: StoreStats{Updates: 1}, counters: map[string]float64{update: 1},
			ops: []string{"update"},
		},
		{
			name: "blocked",
			act: func(t *testing.T, _ *vclock.Sim, s *Store) {
				if err := put(s, x, "a", DefaultMaxObjectSize+1, 1, time.Hour); !errors.Is(err, ErrBlocked) {
					t.Fatalf("oversized Put: %v", err)
				}
			},
			stats: StoreStats{Blocked: 1}, counters: map[string]float64{blocked: 1},
			events: []string{"blocked"}, ops: []string{"reject-blocked"},
		},
		{
			name: "stale drop",
			// A purge of an absent URL raises the high-water mark and
			// records nothing.
			setup: func(_ *testing.T, _ *vclock.Sim, s *Store) { s.Purge(x, 2, false, false) },
			act: func(t *testing.T, _ *vclock.Sim, s *Store) {
				if err := put(s, x, "a", 1024, 1, time.Hour); !errors.Is(err, ErrStaleVersion) {
					t.Fatalf("stale Put: %v", err)
				}
			},
			stats: StoreStats{StaleDrops: 1}, counters: map[string]float64{drop: 1},
			events: []string{"stale-drop"}, ops: []string{"reject-stale"},
		},
		{
			name: "expiry",
			setup: func(t *testing.T, sim *vclock.Sim, s *Store) {
				if err := put(s, x, "a", 1024, 1, time.Minute); err != nil {
					t.Fatal(err)
				}
				sim.Sleep(2 * time.Minute)
			},
			act:   func(_ *testing.T, _ *vclock.Sim, s *Store) { s.SweepExpired() },
			stats: StoreStats{Expired: 1}, counters: map[string]float64{expired: 1},
			events: []string{"evict/expired"}, ops: []string{"expire"},
		},
		{
			name:     "policy eviction",
			capacity: 2 << 10,
			setup: func(t *testing.T, _ *vclock.Sim, s *Store) {
				mustPut(t, s, "http://t.example/a", "a", 1024, 1)
				mustPut(t, s, "http://t.example/b", "a", 1024, 1)
			},
			act:   func(t *testing.T, _ *vclock.Sim, s *Store) { mustPut(t, s, x, "a", 1024, 1) },
			stats: StoreStats{Insertions: 1, Evictions: 1}, counters: map[string]float64{insert: 1, capacity: 1},
			events: []string{"evict/capacity"}, ops: []string{"evict-capacity", "admit"},
		},
		{
			name:     "fallback eviction",
			capacity: 2 << 10,
			policy:   func() Policy { return noVictims{} },
			setup: func(t *testing.T, _ *vclock.Sim, s *Store) {
				mustPut(t, s, "http://t.example/a", "a", 1024, 1)
				mustPut(t, s, "http://t.example/b", "a", 1024, 1)
			},
			act:   func(t *testing.T, _ *vclock.Sim, s *Store) { mustPut(t, s, x, "a", 1024, 1) },
			stats: StoreStats{Insertions: 1, Evictions: 1}, counters: map[string]float64{insert: 1, capacity: 1},
			events: []string{"evict/capacity"}, ops: []string{"evict-capacity", "admit"},
		},
		{
			// The fairness repair drops the idle hog's entries: the ledger
			// says gini, every other book says capacity.
			name:     "gini eviction",
			capacity: 8 << 10,
			setup: func(t *testing.T, _ *vclock.Sim, s *Store) {
				for i := 0; i < 6; i++ {
					mustPut(t, s, fmt.Sprintf("http://t.example/hog%d", i), "hog", 1024, 1)
				}
				for i := 0; i < 200; i++ {
					s.RecordRequest("busy")
				}
			},
			act: func(t *testing.T, _ *vclock.Sim, s *Store) {
				for i := 0; i < 4; i++ {
					mustPut(t, s, fmt.Sprintf("http://t.example/busy%d", i), "busy", 1024, 1)
				}
			},
			stats:    StoreStats{Insertions: 4, Evictions: 6},
			counters: map[string]float64{insert: 4, capacity: 6},
			events: []string{"evict/capacity", "evict/capacity", "evict/capacity",
				"evict/capacity", "evict/capacity", "evict/capacity"},
			// The third admission evicts all six hogs, oldest first.
			ops: []string{"admit", "admit", "evict-gini", "evict-gini", "evict-gini",
				"evict-gini", "evict-gini", "evict-capacity", "admit", "admit"},
			repeat: 8,
		},
		{
			name:  "purge evicts",
			setup: func(t *testing.T, _ *vclock.Sim, s *Store) { mustPut(t, s, x, "a", 1024, 1) },
			act:   func(_ *testing.T, _ *vclock.Sim, s *Store) { s.Purge(x, 2, false, false) },
			stats: StoreStats{Purged: 1}, counters: map[string]float64{purged: 1},
			events: []string{"purge", "evict/purged"}, ops: []string{"purge"},
		},
		{
			// Purged counts the touched copy; cause="purged" does not,
			// because the copy stays resident.
			name:   "purge keeps stale",
			setup:  func(t *testing.T, _ *vclock.Sim, s *Store) { mustPut(t, s, x, "a", 1024, 1) },
			act:    func(_ *testing.T, _ *vclock.Sim, s *Store) { s.Purge(x, 2, false, true) },
			stats:  StoreStats{Purged: 1},
			events: []string{"purge"}, ops: []string{"purge"},
		},
		{
			name: "repeat purge of stale copy",
			setup: func(t *testing.T, _ *vclock.Sim, s *Store) {
				mustPut(t, s, x, "a", 1024, 1)
				s.Purge(x, 2, false, true)
			},
			act:    func(_ *testing.T, _ *vclock.Sim, s *Store) { s.Purge(x, 3, false, true) },
			stats:  StoreStats{Purged: 1},
			events: []string{"purge"}, ops: []string{"purge"},
		},
		{
			name:  "gone purge of resident copy",
			setup: func(t *testing.T, _ *vclock.Sim, s *Store) { mustPut(t, s, x, "a", 1024, 1) },
			act:   func(_ *testing.T, _ *vclock.Sim, s *Store) { s.Purge(x, 2, true, true) },
			stats: StoreStats{Purged: 1}, counters: map[string]float64{purged: 1},
			events: []string{"purge", "evict/purged"}, ops: []string{"purge+gone"},
		},
		{
			// The copy already is the announced version: no decision.
			name:  "purge of current copy",
			setup: func(t *testing.T, _ *vclock.Sim, s *Store) { mustPut(t, s, x, "a", 1024, 3) },
			act:   func(_ *testing.T, _ *vclock.Sim, s *Store) { s.Purge(x, 2, false, false) },
		},
		{
			name: "gone purge of absent URL",
			act:  func(_ *testing.T, _ *vclock.Sim, s *Store) { s.Purge(x, 2, true, false) },
			ops:  []string{"purge+gone"},
		},
		{
			name: "purge of absent URL",
			act:  func(_ *testing.T, _ *vclock.Sim, s *Store) { s.Purge(x, 2, false, false) },
		},
		{
			name: "stale serve",
			setup: func(t *testing.T, _ *vclock.Sim, s *Store) {
				mustPut(t, s, x, "a", 1024, 1)
				s.Purge(x, 2, false, true)
			},
			act: func(t *testing.T, _ *vclock.Sim, s *Store) {
				if _, ok := s.GetStale(x); !ok {
					t.Fatal("GetStale refused the stale copy")
				}
			},
			stats: StoreStats{StaleServes: 1}, counters: map[string]float64{serve: 1},
			events: []string{"stale-serve"}, ops: []string{"stale-serve"},
		},
		{
			name: "revalidation",
			setup: func(t *testing.T, _ *vclock.Sim, s *Store) {
				mustPut(t, s, x, "a", 1024, 1)
				s.Purge(x, 2, false, true)
			},
			act: func(t *testing.T, _ *vclock.Sim, s *Store) {
				if !s.Revalidated(x, 2) {
					t.Fatal("Revalidated found no entry")
				}
			},
			ops: []string{"revalidate"},
		},
		{
			name:  "mark gone",
			setup: func(t *testing.T, _ *vclock.Sim, s *Store) { mustPut(t, s, x, "a", 1024, 1) },
			act:   func(_ *testing.T, _ *vclock.Sim, s *Store) { s.MarkGone(x) },
			stats: StoreStats{Purged: 1}, counters: map[string]float64{purged: 1},
			events: []string{"purge", "evict/purged"}, ops: []string{"purge+gone"},
		},
		{
			name: "mark gone of absent URL",
			act:  func(_ *testing.T, _ *vclock.Sim, s *Store) { s.MarkGone(x) },
			ops:  []string{"purge+gone"},
		},
	}

	for _, tc := range cases {
		for _, withLedger := range []bool{false, true} {
			name := tc.name + "/no-ledger"
			if withLedger {
				name = tc.name + "/ledger"
			}
			t.Run(name, func(t *testing.T) {
				for range max(tc.repeat, 1) {
					capacity, policy := tc.capacity, Policy(NewPACM())
					if capacity == 0 {
						capacity = 64 << 10
					}
					if tc.policy != nil {
						policy = tc.policy()
					}
					runStore(t, capacity, policy, func(sim *vclock.Sim, s *Store) {
						tel := telemetry.New(sim)
						s.Instrument(tel, "rec")
						var led *decisionlog.Ledger
						if withLedger {
							led = decisionlog.New(1024)
							s.AttachLedger(led)
						}
						if tc.setup != nil {
							tc.setup(t, sim, s)
						}
						before := readBooks(s, tel, led)
						tc.act(t, sim, s)
						after := readBooks(s, tel, led)

						if got := statsDelta(before.stats, after.stats); got != tc.stats {
							t.Errorf("StoreStats moved by %+v, want %+v", got, tc.stats)
						}
						for _, name := range recordedCounters {
							if got, want := after.counters[name]-before.counters[name], tc.counters[name]; got != want {
								t.Errorf("%s moved by %v, want %v", name, got, want)
							}
						}
						var events []string
						for _, line := range tel.Events.Recent(int(after.events - before.events)) {
							events = append(events, eventName(line))
						}
						if !reflect.DeepEqual(events, tc.events) {
							t.Errorf("events %q, want %q", events, tc.events)
						}
						var ops []string
						if led != nil {
							for _, ev := range led.DomainRecent("t.example", 0)[before.ledger:] {
								ops = append(ops, opName(ev))
							}
						}
						want := tc.ops
						if !withLedger {
							want = nil
						}
						if !reflect.DeepEqual(ops, want) {
							t.Errorf("ledger ops %q, want %q", ops, want)
						}
					})
				}
			})
		}
	}
}
