package shapecache

import (
	"bytes"
	"container/list"
	"context"
	"sort"
	"sync"

	"maskfrac/internal/flight"
	"maskfrac/internal/geom"
)

// Entry is one cached fracturing solution, stored in the canonical
// frame of its congruence class.
type Entry struct {
	// Shots is the solver's shot list mapped into the canonical frame.
	Shots []geom.Rect
	// Pairs lists the solution's L-shot pairs as {i, j} indices into
	// Shots (i < j, each shot in at most one pair). Canonicalization
	// preserves shot order, so the indices are frame-independent. Nil
	// for rectangle-only solutions.
	Pairs [][2]int
	// Meta carries caller-defined solution metadata (evaluation counts,
	// stage statistics, timings). The cache never inspects it.
	Meta any
	// Bytes is the caller's estimate of the entry's memory footprint,
	// used for the Stats byte accounting.
	Bytes int64
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits       uint64 // lookups answered from a stored entry or an in-flight solve
	Misses     uint64 // lookups that ran the compute function
	Evictions  uint64 // entries dropped by the LRU bound
	Coalesced  uint64 // hits served by waiting on a concurrent in-flight solve
	Entries    int    // stored entries
	Bytes      int64  // sum of stored entry Bytes estimates
	MaxEntries int    // configured entry bound
}

// ClassStat is the per-congruence-class usage record the stencil
// planner mines: how often the class was looked up and what its stored
// solution looks like. Placements counts successful lookups — hits,
// coalesced waits and the solve that stored the entry — so on a
// placement-per-request workload it equals the class's placement count.
// The record survives LRU eviction of its entry: frequency is the
// signal, and a hot class that cycled out of a small cache still
// belongs on the stencil.
type ClassStat struct {
	Key        Key
	Placements uint64  // successful lookups for the class
	Shots      int     // stored solution shot count
	Flashes    int     // VSB flashes: shots minus L-shot pairs
	W, H       float64 // canonical-frame bbox of the stored shot list, nm
}

// Cache is a concurrency-safe, content-addressed LRU cache of
// fracturing solutions. Lookups for a key being computed by another
// goroutine wait for that computation instead of duplicating it, so a
// congruence class is solved exactly once even under concurrent load.
type Cache struct {
	mu        sync.Mutex
	maxEntry  int
	entries   map[Key]*list.Element
	order     *list.List // front = most recently used; values are *lruItem
	flights   flight.Group[Key, *Entry]
	classes   map[Key]*ClassStat // per-class usage, bounded to classCap
	classCap  int
	hits      uint64
	misses    uint64
	evictions uint64
	coalesced uint64
	bytes     int64
}

type lruItem struct {
	key   Key
	entry *Entry
}

// New returns a cache bounded to maxEntries stored solutions;
// maxEntries <= 0 selects a default of 4096.
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	return &Cache{
		maxEntry: maxEntries,
		entries:  make(map[Key]*list.Element),
		order:    list.New(),
		classes:  make(map[Key]*ClassStat),
		classCap: 4 * maxEntries,
	}
}

// Get returns the entry stored under k, marking it most recently used.
// It counts a hit and its class placement exactly as Do does, and
// nothing on a miss: a caller that goes on to Do for k on a miss has
// that lookup counted there, once.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.getLocked(k); e != nil {
		c.hits++
		c.noteClassLocked(k, e)
		return e, true
	}
	return nil, false
}

// Do returns the entry for k, computing and storing it with compute on
// a miss. Concurrent calls for the same key run compute once; the rest
// wait for its result (or their context). The boolean reports whether
// the entry came from the cache or a concurrent computation rather than
// this call's own compute. Errors are returned to every waiter and
// never cached, except that a waiter whose own ctx is live does not
// inherit a leader's context error: it looks the key up again.
func (c *Cache) Do(ctx context.Context, k Key, compute func() (*Entry, error)) (*Entry, bool, error) {
	hit := false
	e, joined, err := c.flights.Do(ctx, k, func() (*Entry, bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		if e := c.getLocked(k); e != nil {
			hit = true
			c.hits++
			c.noteClassLocked(k, e)
			return e, true
		}
		return nil, false
	}, func() (*Entry, error) {
		c.mu.Lock()
		c.misses++
		c.mu.Unlock()
		e, err := compute()
		if err == nil {
			c.mu.Lock()
			c.putLocked(k, e)
			c.noteClassLocked(k, e)
			c.mu.Unlock()
		}
		return e, err
	})
	if joined && err == nil {
		c.mu.Lock()
		c.hits++
		c.coalesced++
		c.noteClassLocked(k, e)
		c.mu.Unlock()
	}
	return e, hit || joined, err
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:       c.hits,
		Misses:     c.misses,
		Evictions:  c.evictions,
		Coalesced:  c.coalesced,
		Entries:    len(c.entries),
		Bytes:      c.bytes,
		MaxEntries: c.maxEntry,
	}
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// TopClasses returns the k highest-placement-count classes, sorted by
// placements descending with key bytes as the deterministic tie-break.
// k <= 0 returns every tracked class. The returned records are copies.
func (c *Cache) TopClasses(k int) []ClassStat {
	c.mu.Lock()
	out := make([]ClassStat, 0, len(c.classes))
	for _, st := range c.classes {
		out = append(out, *st)
	}
	c.mu.Unlock()
	sortClassStats(out)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// sortClassStats orders by placements descending, then key ascending.
func sortClassStats(s []ClassStat) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Placements != s[j].Placements {
			return s[i].Placements > s[j].Placements
		}
		return bytes.Compare(s[i].Key[:], s[j].Key[:]) < 0
	})
}

// noteClassLocked records one successful lookup for k. e carries the
// stored solution so the record has its shot count and canonical bbox.
func (c *Cache) noteClassLocked(k Key, e *Entry) {
	st := c.classes[k]
	if st == nil {
		if len(c.classes) >= c.classCap {
			c.pruneClassesLocked()
		}
		st = &ClassStat{Key: k}
		c.classes[k] = st
	}
	st.Placements++
	if e != nil && (len(e.Shots) != st.Shots || len(e.Shots)-len(e.Pairs) != st.Flashes) {
		st.Shots = len(e.Shots)
		st.Flashes = len(e.Shots) - len(e.Pairs)
		st.W, st.H = shotsBBox(e.Shots)
	}
}

// AddClassUses credits k with n extra placements without a lookup.
// The cluster pipeline calls this for class-memo multiplicities: a
// shard's memo collapses congruent placements into one wire request,
// so the server-side cache sees one lookup where the mask has many
// placements. n placements are added to the class record (creating it
// if needed), keeping the stencil planner's frequency signal honest.
// A class never seen by a lookup has no stored solution to size, so a
// record created here carries zero Shots/Flashes until a real lookup
// fills them in.
func (c *Cache) AddClassUses(k Key, n uint64) {
	if n == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.classes[k]
	if st == nil {
		if len(c.classes) >= c.classCap {
			c.pruneClassesLocked()
		}
		st = &ClassStat{Key: k}
		c.classes[k] = st
	}
	st.Placements += n
	if st.Shots == 0 {
		if e := c.peekLocked(k); e != nil {
			st.Shots = len(e.Shots)
			st.Flashes = len(e.Shots) - len(e.Pairs)
			st.W, st.H = shotsBBox(e.Shots)
		}
	}
}

// peekLocked returns the entry stored under k without touching the
// LRU order.
func (c *Cache) peekLocked(k Key) *Entry {
	if el, ok := c.entries[k]; ok {
		return el.Value.(*lruItem).entry
	}
	return nil
}

// pruneClassesLocked halves the class-stat map, keeping the highest
// placement counts, so the tracker stays bounded on a mask with more
// distinct classes than classCap. The planner only ever asks for the
// top of the distribution, which pruning preserves.
func (c *Cache) pruneClassesLocked() {
	all := make([]ClassStat, 0, len(c.classes))
	for _, st := range c.classes {
		all = append(all, *st)
	}
	sortClassStats(all)
	for _, st := range all[c.classCap/2:] {
		delete(c.classes, st.Key)
	}
}

// shotsBBox returns the width and height of the bounding box of a
// canonical-frame shot list.
func shotsBBox(shots []geom.Rect) (w, h float64) {
	if len(shots) == 0 {
		return 0, 0
	}
	bb := shots[0]
	for _, s := range shots[1:] {
		bb = bb.Union(s)
	}
	return bb.W(), bb.H()
}

func (c *Cache) getLocked(k Key) *Entry {
	el, ok := c.entries[k]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem).entry
}

func (c *Cache) putLocked(k Key, e *Entry) {
	if el, ok := c.entries[k]; ok {
		it := el.Value.(*lruItem)
		c.bytes += e.Bytes - it.entry.Bytes
		it.entry = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&lruItem{key: k, entry: e})
	c.bytes += e.Bytes
	for len(c.entries) > c.maxEntry {
		back := c.order.Back()
		if back == nil {
			break
		}
		it := c.order.Remove(back).(*lruItem)
		delete(c.entries, it.key)
		c.bytes -= it.entry.Bytes
		c.evictions++
	}
}
