package mc

import (
	"bytes"
	"encoding/binary"
	"testing"
)

const testKeyLen = 12

// testKeys returns n distinct keys of testKeyLen bytes.
func testKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = binary.BigEndian.AppendUint64(make([]byte, 0, testKeyLen), uint64(i)*0x9E3779B97F4A7C15)
		keys[i] = binary.BigEndian.AppendUint32(keys[i], uint32(i))
	}
	return keys
}

func internAll(t *testing.T, st *stateStore, keys [][]byte) {
	t.Helper()
	for i, k := range keys {
		if id, added := st.intern(k, hashKey(k)); !added || id != i {
			t.Fatalf("intern(%x) = (%d, %v), want (%d, true)", k, id, added, i)
		}
	}
}

func TestStateStoreInternDedup(t *testing.T) {
	st := newStateStore(testKeyLen)
	keys := testKeys(1000)
	internAll(t, st, keys)
	if st.n != len(keys) {
		t.Fatalf("len = %d, want %d", st.n, len(keys))
	}
	for i, k := range keys {
		if id, added := st.intern(k, hashKey(k)); added || id != i {
			t.Fatalf("re-intern(%x) = (%d, %v), want (%d, false)", k, id, added, i)
		}
	}
	if st.n != len(keys) {
		t.Fatalf("len after re-interning = %d, want %d", st.n, len(keys))
	}
}

// TestStateStorePagesAndGrowth crosses three page boundaries and many
// table doublings, and checks after every one of them that every id
// interned so far still finds its own bytes.
func TestStateStorePagesAndGrowth(t *testing.T) {
	st := newStateStore(testKeyLen)
	keys := testKeys(3*pageSize + 100)
	verify := func(upTo int) {
		t.Helper()
		for i, k := range keys[:upTo] {
			if id, _, found := st.find(k, hashKey(k)); !found || id != i {
				t.Fatalf("after %d keys: find(key %d) = (%d, %v)", upTo, i, id, found)
			}
			if !bytes.Equal(st.key(i), k) {
				t.Fatalf("after %d keys: key(%d) = %x, want %x", upTo, i, st.key(i), k)
			}
		}
	}
	doublings := 0
	for i, k := range keys {
		pages, slots := len(st.pages), len(st.table)
		if id, added := st.intern(k, hashKey(k)); !added || id != i {
			t.Fatalf("intern(key %d) = (%d, %v)", i, id, added)
		}
		if len(st.table) != slots {
			doublings++
		}
		if len(st.table) != slots || len(st.pages) != pages {
			verify(i + 1)
		}
	}
	verify(len(keys))
	if len(st.pages) != 4 || doublings < 2 {
		t.Fatalf("%d pages, %d table doublings; want 4 pages and at least 2 doublings", len(st.pages), doublings)
	}
}

// TestStateStoreTagCollision hands the store distinct keys under one
// hash: the tag in the slot cannot tell them apart, so only the full key
// compare keeps them separate.
func TestStateStoreTagCollision(t *testing.T) {
	st := newStateStore(testKeyLen)
	keys := testKeys(200) // enough to take the colliding run through table doublings
	const h = 0xDEADBEEF_00C0FFEE
	for i, k := range keys {
		if id, added := st.intern(k, h); !added || id != i {
			t.Fatalf("intern(key %d) = (%d, %v), want (%d, true)", i, id, added, i)
		}
	}
	for i, k := range keys {
		if id, added := st.intern(k, h); added || id != i {
			t.Fatalf("re-intern(key %d) = (%d, %v), want (%d, false)", i, id, added, i)
		}
	}
	// Same tag, different upper hash bits: still the same slot run.
	if id, added := st.intern(keys[7], h^0xFFFF_0000_0000_0000); added || id != 7 {
		t.Fatalf("re-intern under a hash sharing only the tag = (%d, %v), want (7, false)", id, added)
	}
}

func TestStateStoreDoesNotRetainCaller(t *testing.T) {
	st := newStateStore(4)
	buf := []byte("aaaa")
	st.intern(buf, hashKey(buf))
	copy(buf, "bbbb") // caller reuses its buffer
	if string(st.key(0)) != "aaaa" {
		t.Fatalf("stored key mutated to %q", st.key(0))
	}
	if id, added := st.intern(buf, hashKey(buf)); !added || id != 1 {
		t.Fatalf("intern after reuse = (%d, %v), want (1, true)", id, added)
	}
}

func TestStateStoreLookupAllocs(t *testing.T) {
	st := newStateStore(testKeyLen)
	keys := testKeys(1000)
	internAll(t, st, keys)
	absent := testKeys(2000)[1000:]
	allocs := testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			if _, added := st.intern(k, hashKey(k)); added {
				t.Fatal("hit path added a key")
			}
		}
		for _, k := range absent {
			if _, _, found := st.find(k, hashKey(k)); found {
				t.Fatal("found a key never interned")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("lookup allocs/run = %v, want 0", allocs)
	}
}

// BenchmarkStateStore pins the packed store's intern cost: the miss path
// (fresh keys, page allocation and table doubling) and the hit path
// (dedup lookups, zero allocations).
func BenchmarkStateStore(b *testing.B) {
	keys := testKeys(100_000)
	b.Run("intern-miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := newStateStore(testKeyLen)
			for _, k := range keys {
				st.intern(k, hashKey(k))
			}
		}
		b.ReportMetric(float64(len(keys)*b.N)/b.Elapsed().Seconds(), "interns/s")
	})
	b.Run("intern-hit", func(b *testing.B) {
		st := newStateStore(testKeyLen)
		for _, k := range keys {
			st.intern(k, hashKey(k))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				st.intern(k, hashKey(k))
			}
		}
		b.ReportMetric(float64(len(keys)*b.N)/b.Elapsed().Seconds(), "interns/s")
	})
}
