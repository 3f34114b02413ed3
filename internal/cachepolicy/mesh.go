package cachepolicy

import (
	"apecache/internal/dnswire"
)

// MeshDomain is one domain's slice of a cooperative-mesh content summary:
// a commutative digest over the resident fresh URL hashes plus the known
// and fresh counts, cheap enough for the controller to compare across
// publish rounds without holding URL lists.
type MeshDomain struct {
	Domain string `json:"domain"`
	// Digest is an order-independent fold over the domain's resident
	// fresh URL hashes; it changes whenever the served set changes.
	Digest uint64 `json:"digest"`
	// Known counts every hash ever seen under the domain; Fresh the
	// subset resident and servable right now.
	Known int `json:"known"`
	Fresh int `json:"fresh"`
}

// meshMix decorrelates a URL hash before the commutative fold so that
// sets differing by a swap of related hashes still digest differently.
func meshMix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// MeshView snapshots the store for a mesh content summary: the URL
// hashes of every resident, fresh, non-stale entry (the objects a peer
// fetch would actually be served) and the per-domain digests. It runs
// under the read lock — O(residents) — so summary building never blocks
// the DNS/HTTP hot path.
func (s *Store) MeshView() (hashes []uint64, domains []MeshDomain) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	now := s.clock.Now()
	hashes = make([]uint64, 0, len(s.entries))
	agg := make(map[string]*MeshDomain, len(s.domains))
	for url, e := range s.entries {
		if e.Stale || !e.Fresh(now) {
			continue
		}
		h := dnswire.HashURL(url)
		hashes = append(hashes, h)
		domain := dnswire.URLDomain(url)
		d := agg[domain]
		if d == nil {
			d = &MeshDomain{Domain: domain, Known: len(s.domains[domain])}
			agg[domain] = d
		}
		d.Fresh++
		d.Digest += meshMix(h) // commutative: iteration order cannot matter
	}
	domains = make([]MeshDomain, 0, len(agg))
	for _, d := range agg {
		domains = append(domains, *d)
	}
	return hashes, domains
}
