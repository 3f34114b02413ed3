package cachepolicy

import (
	"time"

	"apecache/internal/decisionlog"
)

// AttachLedger hooks a decision ledger into the store: from now on every
// cache lifecycle decision (admission, rejection, eviction, expiry,
// purge, SWR serve, revalidation) is recorded on it, and every miss in
// Get is classified into the ledger's cause taxonomy. A nil ledger
// detaches. When the policy is PACM, attaching also turns on
// fairness-victim recording so Gini-forced evictions are distinguished
// from capacity evictions in the ledger (the telemetry wire keeps the
// single "capacity" reason either way — metric families are unchanged).
func (s *Store) AttachLedger(l *decisionlog.Ledger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ledger = l
	if p, ok := s.policy.(*PACM); ok {
		p.recordFairness = l != nil
	}
}

// Ledger returns the attached decision ledger, or nil.
func (s *Store) Ledger() *decisionlog.Ledger {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ledger
}

// ledgerEvent builds a decision event carrying the entry's PACM utility
// standing (U = R(A_d)·e_d·l_d·p_d and its density) at now. Only record
// calls it, under the write lock and with a ledger attached.
func (s *Store) ledgerEvent(op decisionlog.Op, e *Entry, now time.Time) decisionlog.Event {
	rate := s.freq.Rate(e.Object.App)
	util := utilityAtRate(e, now, rate)
	size := e.Size()
	density := 0.0
	if size > 0 {
		density = util / float64(size)
	}
	remain := e.Expiry.Sub(now).Minutes()
	if remain < 0 {
		remain = 0
	}
	return decisionlog.Event{
		Time:      now,
		Op:        op,
		URL:       e.Object.URL,
		App:       e.Object.App,
		Size:      size,
		Version:   e.Version,
		Rate:      rate,
		RemainMin: remain,
		LatencyMS: float64(e.FetchLatency) / float64(time.Millisecond),
		Priority:  e.Object.Priority,
		Utility:   util,
		Density:   density,
		Expiry:    e.Expiry,
	}
}
