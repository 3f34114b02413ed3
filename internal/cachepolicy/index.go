package cachepolicy

import (
	"container/heap"
	"time"

	"apecache/internal/dnswire"
)

// expiryItem is one lazily-invalidated entry in the store's expiry
// min-heap. An item is current only while the resident entry for its URL
// still carries exactly this expiry; refreshes and revalidations push a
// new item instead of searching for the old one, and superseded items are
// discarded when they surface at the top.
type expiryItem struct {
	url    string
	expiry time.Time
}

// expiryHeap is a min-heap over entry expiries. It gives the store an
// O(log n) answer to "which entry expires next?" so Put no longer scans
// every resident entry for TTL expiry. Ties on expiry order by URL: the
// order is total, so the pop sequence depends only on the items, never on
// the heap's layout (which a compaction rebuilds).
type expiryHeap []expiryItem

func (h expiryHeap) Len() int { return len(h) }
func (h expiryHeap) Less(i, j int) bool {
	if !h[i].expiry.Equal(h[j].expiry) {
		return h[i].expiry.Before(h[j].expiry)
	}
	return h[i].url < h[j].url
}
func (h expiryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)   { *h = append(*h, x.(expiryItem)) }
func (h *expiryHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// popExpiry removes and returns the heap top.
func popExpiry(h *expiryHeap) expiryItem {
	return heap.Pop(h).(expiryItem)
}

// expirySlack is how many items beyond two per resident entry the expiry
// heap may hold before pushExpiry compacts it.
const expirySlack = 64

// pushExpiry records an entry's (new) expiry. Superseded items leave the
// heap only when they surface at the top, and a long-lived resident entry
// can keep them from surfacing, so once the heap outgrows twice the
// resident count plus expirySlack it is rebuilt from the entries. The
// heap then stays proportional to the resident set however many Puts the
// store takes, and each rebuild is paid for by the pushes since the last
// one. Callers hold the write lock.
func (s *Store) pushExpiry(url string, expiry time.Time) {
	if len(s.expiries) > 2*len(s.entries)+expirySlack {
		s.expiries = s.expiries[:0]
		for u, e := range s.entries {
			s.expiries = append(s.expiries, expiryItem{url: u, expiry: e.Expiry})
		}
		heap.Init(&s.expiries)
	}
	heap.Push(&s.expiries, expiryItem{url: url, expiry: expiry})
}

// indexKnown records a hash→URL sighting in both the global map and the
// per-domain known-hash index that KnownHashesForDomain and MeshView
// read. Callers hold the write lock.
func (s *Store) indexKnown(hash uint64, url string) {
	s.byHash[hash] = url
	domain := dnswire.URLDomain(url)
	known := s.domains[domain]
	if known == nil {
		known = make(map[uint64]string)
		s.domains[domain] = known
	}
	known[hash] = url
}
