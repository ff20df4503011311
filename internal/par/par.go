// Package par is the repo's one answer to "how are independent units of
// work claimed, stopped and merged": an ordered fan-out whose result is
// what a sequential loop returns at any worker count, and a keyed
// build-once memo for what those units share.
package par

import (
	"sync"
	"sync/atomic"
)

// Do runs fn(worker, i) for i in [0, n) and returns what the sequential
// loop
//
//	for i := 0; i < n; i++ { if err := fn(0, i); err != nil { return i, err } }
//
// returns: done is the number of leading indices that completed cleanly
// and err is the error of the lowest failing index. A caller that reads
// only the results of [0, done) therefore sees the same thing at every
// worker count, provided fn(_, i) depends on nothing another index writes.
//
// With workers <= 1 (or n <= 1) that loop is run inline, with no
// goroutine and no allocation. Otherwise min(workers, n) goroutines claim
// indices in ascending order from one counter and make no new claim after
// any fn has failed. Claims are monotone, so every index below a failing
// one was claimed before it and has run to completion by the time Do
// returns; indices above it may or may not have run. worker is in
// [0, workers) and fixed per goroutine: state indexed by it needs no lock.
func Do(n, workers int, fn func(worker, i int) error) (done int, err error) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return i, err
			}
		}
		return n, nil
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	// A worker stops at its first error, so one slot per worker holds
	// every failure there can be.
	type failure struct {
		i   int
		err error
	}
	fails := make([]failure, workers)
	for w := range fails {
		fails[w].i = n
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(w, i); err != nil {
					fails[w] = failure{i, err}
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	done = n
	for _, f := range fails {
		if f.i < done {
			done, err = f.i, f.err
		}
	}
	return done, err
}

// Memo builds the value of each key at most once, errors included:
// concurrent Gets of one key share a single build, Gets of different keys
// build concurrently, and no Memo lock is held while a build runs. The
// zero value is ready to use; a Memo must not be copied after first use.
type Memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	v    V
	err  error
}

// Get returns the value of k, calling build(k) if no Get of k has yet.
func (m *Memo[K, V]) Get(k K, build func(K) (V, error)) (V, error) {
	m.mu.Lock()
	e, ok := m.entries[k]
	if !ok {
		if m.entries == nil {
			m.entries = make(map[K]*memoEntry[V])
		}
		e = new(memoEntry[V])
		m.entries[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v, e.err = build(k) })
	return e.v, e.err
}
