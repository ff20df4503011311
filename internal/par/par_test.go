package par

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// sequential is the loop Do promises to be indistinguishable from.
func sequential(n int, fn func(i int) error) (int, error) {
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return i, err
		}
	}
	return n, nil
}

// TestDoMatchesSequentialLoop is the contract: at every worker count Do
// returns the sequential loop's (done, err), every index below done ran
// exactly once, and a caller that reads only [0, done) sees exactly the
// sequential loop's results.
func TestDoMatchesSequentialLoop(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		fails []int
	}{
		{"empty", 0, nil},
		{"single", 1, nil},
		{"fewer units than workers", 3, nil},
		{"clean", 100, nil},
		{"error at first index", 100, []int{0}},
		{"error in the middle", 100, []int{50}},
		{"error at last index", 100, []int{99}},
		{"two errors, the lower wins", 100, []int{70, 30}},
		{"adjacent errors", 100, []int{41, 40}},
		{"every index fails", 20, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19}},
	}
	for _, tc := range cases {
		failing := make(map[int]bool, len(tc.fails))
		for _, i := range tc.fails {
			failing[i] = true
		}
		unit := func(i int) error {
			if failing[i] {
				return fmt.Errorf("unit %d failed", i)
			}
			return nil
		}
		wantDone, wantErr := sequential(tc.n, unit)
		for _, workers := range []int{-1, 0, 1, 2, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				runs := make([]atomic.Int32, tc.n)
				results := make([]int, tc.n)
				done, err := Do(tc.n, workers, func(_, i int) error {
					runs[i].Add(1)
					if err := unit(i); err != nil {
						return err
					}
					results[i] = i*i + 1
					return nil
				})
				if done != wantDone {
					t.Fatalf("done = %d, want %d", done, wantDone)
				}
				if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
					t.Fatalf("err = %v, want %v", err, wantErr)
				}
				for i := 0; i < done; i++ {
					if got := runs[i].Load(); got != 1 {
						t.Fatalf("index %d below done ran %d times", i, got)
					}
					if results[i] != i*i+1 {
						t.Fatalf("result %d = %d, want %d", i, results[i], i*i+1)
					}
				}
				for i := range runs {
					if got := runs[i].Load(); got > 1 {
						t.Fatalf("index %d ran %d times", i, got)
					}
				}
			})
		}
	}
}

// TestDoStopsClaimingAfterError: once a unit has failed no new index is
// claimed, so at most one unit per worker can start after the failure —
// the ones already claimed.
func TestDoStopsClaimingAfterError(t *testing.T) {
	const n, workers = 10000, 4
	var ran atomic.Int32
	done, err := Do(n, workers, func(_, i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("first unit failed")
		}
		return nil
	})
	if done != 0 || err == nil {
		t.Fatalf("Do = (%d, %v), want (0, error)", done, err)
	}
	if got := ran.Load(); got == n {
		t.Fatalf("all %d units ran after the first one failed", got)
	}
}

// TestDoWorkerIDs: worker ids stay inside [0, min(workers, n)) and no two
// live goroutines ever hold the same one, so per-worker state needs no
// lock. The per-worker counters below are plain ints on purpose: under
// -race a shared id is a reported data race, not only a failed check.
func TestDoWorkerIDs(t *testing.T) {
	for _, tc := range []struct{ n, workers int }{{1000, 2}, {1000, 8}, {3, 8}, {50, 1}} {
		limit := max(min(tc.workers, tc.n), 1)
		busy := make([]atomic.Bool, limit)
		perWorker := make([]int, limit)
		done, err := Do(tc.n, tc.workers, func(w, i int) error {
			if w < 0 || w >= limit {
				return fmt.Errorf("worker id %d outside [0, %d)", w, limit)
			}
			if !busy[w].CompareAndSwap(false, true) {
				return fmt.Errorf("worker id %d held by two goroutines at once", w)
			}
			perWorker[w]++
			busy[w].Store(false)
			return nil
		})
		if err != nil || done != tc.n {
			t.Fatalf("n=%d workers=%d: Do = (%d, %v)", tc.n, tc.workers, done, err)
		}
		total := 0
		for _, c := range perWorker {
			total += c
		}
		if total != tc.n {
			t.Fatalf("n=%d workers=%d: workers counted %d units", tc.n, tc.workers, total)
		}
	}
}

// TestDoInlineAllocFree: the workers <= 1 path is a plain loop — the
// fleet's 0-allocs-per-epoch pin rides on it.
func TestDoInlineAllocFree(t *testing.T) {
	sum := 0
	fn := func(_, i int) error { sum += i; return nil }
	if allocs := testing.AllocsPerRun(100, func() { Do(64, 1, fn) }); allocs != 0 {
		t.Fatalf("inline Do allocated %v times per run", allocs)
	}
}

// TestMemoBuildsOncePerKey: eight concurrent requesters of one key share
// one build and all see its value; a second key builds independently.
func TestMemoBuildsOncePerKey(t *testing.T) {
	var m Memo[string, int]
	var builds atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	build := func(k string) (int, error) {
		if builds.Add(1) == 1 {
			close(entered)
		}
		<-release // hold the build open while the other requesters arrive
		return len(k), nil
	}
	const requesters = 8
	var wg sync.WaitGroup
	got := make([]int, requesters)
	for r := 0; r < requesters; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Get("spec", build)
			if err != nil {
				t.Errorf("requester %d: %v", r, err)
			}
			got[r] = v
		}()
	}
	<-entered
	// A build in flight for one key must not block another key's: a Memo
	// that held its lock across the build would hang here.
	if v, err := m.Get("other key", func(k string) (int, error) { return -1, nil }); v != -1 || err != nil {
		t.Fatalf("second key = (%d, %v) while the first was building", v, err)
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for r, v := range got {
		if v != len("spec") {
			t.Fatalf("requester %d got %d", r, v)
		}
	}
}

// TestMemoCachesError: a failed build is the key's answer for good — the
// callers treat a spec that cannot be built as a property of the key.
func TestMemoCachesError(t *testing.T) {
	var m Memo[int, string]
	boom := errors.New("state limit exceeded")
	builds := 0
	for call := 0; call < 3; call++ {
		_, err := m.Get(7, func(int) (string, error) { builds++; return "", boom })
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want %v", call, err, boom)
		}
	}
	if builds != 1 {
		t.Fatalf("failed build ran %d times, want 1", builds)
	}
	if v, err := m.Get(8, func(int) (string, error) { return "ok", nil }); v != "ok" || err != nil {
		t.Fatalf("other key = (%q, %v)", v, err)
	}
}

// TestMemoHitAllocFree: a retune on the streaming checker's per-event path
// is a Memo hit.
func TestMemoHitAllocFree(t *testing.T) {
	var m Memo[int, *int]
	build := func(k int) (*int, error) { return &k, nil }
	m.Get(3, build)
	if allocs := testing.AllocsPerRun(100, func() { m.Get(3, build) }); allocs != 0 {
		t.Fatalf("Memo hit allocated %v times per call", allocs)
	}
}
