package experiments

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"apecache/internal/testbed"
)

func init() {
	register(Experiment{
		ID:    "fleet-storm",
		Title: "Purge storm and flash crowd across a thousand-AP fleet: legacy vs sharded fan-out",
		Run:   runFleetStorm,
	})
}

// stormFleets are the two fleet sizes compared (APs per controller over
// 16 controllers: 256- and 1024-AP fleets at full scale). Scale shrinks
// them proportionally with floors, so smoke runs stay quick.
var stormFleets = []struct {
	base, floor int
}{
	{base: 16, floor: 4},
	{base: 64, floor: 16},
}

// runFleetStorm replays the same purge storm — every object invalidated
// at once, one flash-crowd object resident across a whole controller's
// fleet — in the two fan-out modes of testbed.StormConfig, at two fleet
// sizes. "legacy" is wildcard hub subscriptions plus the controllers'
// broadcast relay; "sharded" is domain-sharded batch subscriptions plus
// location-targeted controller relays. The claims
// under test: the effective purge set (resident copies actually evicted)
// is identical in both modes, publication latency stays flat as the
// fleet quadruples, and the sharded plane spends an order of magnitude
// fewer relay messages.
func runFleetStorm(cfg RunConfig) (*Result, error) {
	res := &Result{
		ID:     "fleet-storm",
		Title:  "Purge storm + flash crowd: relay amplification by fan-out plane",
		Header: []string{"Mode", "Fleet", "Purges", "Pub mean (ms)", "Pub p95 (ms)", "Relay msgs", "Msgs/purge", "Effective", "Dropped"},
	}
	objects := int(96 * cfg.scale())
	if objects < 24 {
		objects = 24
	}
	for _, fl := range stormFleets {
		apsPer := int(float64(fl.base) * cfg.scale())
		if apsPer < fl.floor {
			apsPer = fl.floor
		}
		if apsPer > fl.base {
			apsPer = fl.base
		}
		var runs [2]*testbed.StormResult
		for i, sharded := range []bool{false, true} {
			r, err := testbed.RunStorm(testbed.StormConfig{
				APsPerController: apsPer,
				Objects:          objects,
				Sharded:          sharded,
				Seed:             cfg.Seed,
			})
			if err != nil {
				return nil, fmt.Errorf("fleet-storm (aps=%d sharded=%v): %w", apsPer, sharded, err)
			}
			runs[i] = r
			mode := "legacy"
			if sharded {
				mode = "sharded"
			}
			res.Rows = append(res.Rows, []string{
				mode,
				fmt.Sprintf("%d", r.FleetSize),
				fmt.Sprintf("%d", r.Publications),
				ms(r.PubLatency.Mean()),
				ms(r.PubLatency.P95()),
				fmt.Sprintf("%d", r.RelayMessages),
				fmt.Sprintf("%.1f", float64(r.RelayMessages)/float64(r.Publications)),
				fmt.Sprintf("%d", len(r.Effective)),
				fmt.Sprintf("%d", r.Dropped),
			})
		}
		legacy, sharded := runs[0], runs[1]
		reduction := float64(legacy.RelayMessages) / float64(sharded.RelayMessages)
		res.Notes = append(res.Notes, fmt.Sprintf("fleet=%d relay-reduction=%.1fx effective-match=%v",
			legacy.FleetSize, reduction, reflect.DeepEqual(legacy.Effective, sharded.Effective)))
	}
	res.Notes = append(res.Notes,
		"storm: all purges published concurrently; object 0 is the flash-crowd object, resident on every AP of its home controller",
		"effective = resident copies actually evicted; identical sets mean the sharded plane loses nothing the broadcast would have purged")
	return res, nil
}

// StormOutcome parses the per-fleet notes back out of a fleet-storm
// result: the relay reduction factor and effective-set match per fleet
// size — the CI fleet-storm gate reads these.
func StormOutcome(res *Result) (reductions []float64, allMatch bool) {
	allMatch = true
	for _, note := range res.Notes {
		if !strings.HasPrefix(note, "fleet=") {
			continue
		}
		for _, field := range strings.Fields(note) {
			if v, ok := strings.CutPrefix(field, "relay-reduction="); ok {
				f, err := strconv.ParseFloat(strings.TrimSuffix(v, "x"), 64)
				if err == nil {
					reductions = append(reductions, f)
				}
			}
			if v, ok := strings.CutPrefix(field, "effective-match="); ok && v != "true" {
				allMatch = false
			}
		}
	}
	return reductions, allMatch
}
