package experiments

// memo is the service-grade singleflight cache behind the Runner's result
// and trace memos. It keeps the batch engine's exactly-once property
// (concurrent requests for one key coalesce onto a single computation) and
// adds the lifecycle pieces a long-lived server needs: waiters honour
// context cancellation instead of blocking unconditionally on an in-flight
// computation, completed entries are LRU-evictable under a configurable
// capacity (in-flight entries are pinned), a panicking computation records
// the panic as the entry's error before re-raising it (so waiters never
// observe a zero value with a nil error), failed computations are dropped
// after their waiters are released rather than cached (a transient error
// never becomes a permanent negative cache), and every transition is
// counted for the /metrics endpoint.

import (
	"context"
	"fmt"
	"sync"
)

// CacheStats is a point-in-time snapshot of one memo's counters, exported
// for diagnostics and the secsimd /metrics endpoint.
type CacheStats struct {
	// Size is the number of entries currently memoized, in-flight included.
	Size int `json:"size"`
	// Capacity is the configured bound (0 = unbounded).
	Capacity int `json:"capacity"`
	// InFlight is the number of computations currently executing.
	InFlight int `json:"in_flight"`
	// Hits counts requests answered from a completed entry.
	Hits int64 `json:"hits"`
	// Misses counts requests that started a computation.
	Misses int64 `json:"misses"`
	// Coalesced counts requests that joined an in-flight computation.
	Coalesced int64 `json:"coalesced"`
	// Evictions counts completed entries dropped by the LRU bound.
	Evictions int64 `json:"evictions"`
	// Errors counts computations that finished with an error (or panic) and
	// were therefore dropped instead of cached — each such key recomputes on
	// its next request.
	Errors int64 `json:"errors"`
}

// memoEntry is one memo slot. The goroutine that inserts the entry owns the
// computation; everyone else waits on done and then reads val/err.
type memoEntry[K comparable, V any] struct {
	key  K
	done chan struct{}
	val  V
	err  error
	// LRU links, valid only for completed entries (the owner links the
	// entry when it records the outcome). In-flight entries are unlinked
	// and therefore pinned: eviction walks the LRU list only.
	lruLinks[memoEntry[K, V]]
}

// memo deduplicates concurrent computations per key and caches the results
// with optional LRU eviction. Construct with newMemo, or embed the zero
// value and call init before first use (the Runner embeds its memos by
// value to keep them off the per-sweep allocation count).
type memo[K comparable, V any] struct {
	once    sync.Once
	mu      sync.Mutex
	cap     int // <= 0 means unbounded
	entries map[K]*memoEntry[K, V]
	// lru orders the completed entries, most recent first.
	lru       lruList[memoEntry[K, V], *memoEntry[K, V]]
	inflight  int
	hits      int64
	misses    int64
	coalesced int64
	evictions int64
	errors    int64
	// describe renders a key for panic error messages ("simulation
	// mcf/snc-lru"), set per memo so the message names what failed.
	describe func(K) string
}

func newMemo[K comparable, V any](capacity int, describe func(K) string) *memo[K, V] {
	return new(memo[K, V]).init(capacity, describe)
}

// init sets the memo up exactly once (subsequent calls are no-ops) and
// returns it; every access path goes through init, so the sync.Once also
// publishes the fields to concurrent users.
func (m *memo[K, V]) init(capacity int, describe func(K) string) *memo[K, V] {
	m.once.Do(func() {
		m.cap = capacity
		m.describe = describe
		m.entries = make(map[K]*memoEntry[K, V])
	})
	return m
}

// do returns the value for k, computing it via fn at most once no matter
// how many goroutines ask concurrently. Callers that find the key in
// flight coalesce onto the owner's computation; a coalesced waiter whose
// ctx expires returns ctx.Err() promptly while the computation continues
// for everyone else. If fn panics, the panic is recorded as the entry's
// error (waiters observe a failure, never an empty value with a nil error)
// and then re-raised in the owning goroutine.
func (m *memo[K, V]) do(ctx context.Context, k K, fn func() (V, error)) (V, error) {
	m.mu.Lock()
	if e, ok := m.entries[k]; ok {
		select {
		case <-e.done: // completed: a plain cache hit
			m.hits++
			m.lru.moveToFront(e)
			m.mu.Unlock()
			return e.val, e.err
		default:
		}
		m.coalesced++
		m.mu.Unlock()
		return m.wait(ctx, e)
	}
	m.misses++
	m.inflight++
	e := &memoEntry[K, V]{key: k, done: make(chan struct{})}
	m.entries[k] = e
	m.mu.Unlock()

	defer func() {
		p := recover()
		if p != nil {
			e.err = fmt.Errorf("experiments: %s panicked: %v", m.describe(k), p)
		}
		m.mu.Lock()
		m.inflight--
		if e.err != nil {
			// A failed computation must not become a permanent negative
			// cache: drop the entry so the next request recomputes. Waiters
			// already holding the entry pointer still read the error through
			// it after done closes.
			delete(m.entries, e.key)
			m.errors++
		} else {
			m.lru.pushFront(e)
			m.evictLocked()
		}
		m.mu.Unlock()
		close(e.done)
		if p != nil {
			panic(p)
		}
	}()
	e.val, e.err = fn()
	return e.val, e.err
}

// wait blocks a coalesced waiter on e until the computation completes or the
// waiter's context expires. When both are ready, Go's select would otherwise
// pick randomly — nondeterministically returning ctx.Err() for an entry that
// has in fact completed — so the done channel is re-checked first and a
// finished computation always wins over a cancelled context.
func (m *memo[K, V]) wait(ctx context.Context, e *memoEntry[K, V]) (V, error) {
	select {
	case <-e.done:
		return e.val, e.err
	case <-ctx.Done():
		select {
		case <-e.done:
			return e.val, e.err
		default:
		}
		var zero V
		return zero, ctx.Err()
	}
}

// evictLocked drops least-recently-used completed entries until at most
// cap of them remain. Only completed entries count against the capacity:
// in-flight ones are pinned off the LRU list and must not force evictions
// of the very results a busy server is serving hits from (a burst of
// distinct in-flight specs would otherwise thrash the completed set down
// to nothing).
func (m *memo[K, V]) evictLocked() {
	for m.cap > 0 && len(m.entries)-m.inflight > m.cap {
		e := m.lru.back()
		m.lru.remove(e)
		delete(m.entries, e.key)
		m.evictions++
	}
}

// size reports the number of memoized entries (in-flight included).
func (m *memo[K, V]) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// keys snapshots the memoized keys in map order.
func (m *memo[K, V]) keys() []K {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]K, 0, len(m.entries))
	for k := range m.entries {
		out = append(out, k)
	}
	return out
}

// stats snapshots the counters.
func (m *memo[K, V]) stats() CacheStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return CacheStats{
		Size:      len(m.entries),
		Capacity:  m.cap,
		InFlight:  m.inflight,
		Hits:      m.hits,
		Misses:    m.misses,
		Coalesced: m.coalesced,
		Evictions: m.evictions,
		Errors:    m.errors,
	}
}
