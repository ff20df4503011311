package mc

import "math/bits"

// pageBits fixes the page size of key pages, node records and BuildLTS's
// transition log alike. A page is allocated once at full size and never
// copied again: growth costs one allocation per page, not the repeated
// memmove of an append-grown slice. Every check pays for its first pages
// up front, and most table cells store a few thousand states, so the pages
// are small: 2^11 keys (57–90 KB at the table models' 28–44-byte keys) and
// 16 KB of node records, where 2^14 made even a 269-state cell allocate
// 0.6–0.85 MB. A check of millions of states holds one more page pointer
// per 2,048 states and runs no slower (EXPERIMENTS.md, "Table checks:
// one exploration per sliced model, indexed successors, small pages").
const (
	pageBits = 11
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// paged is an append-only vector of pointer-free records in fixed pages;
// records never move, so a *T from at stays valid.
type paged[T any] struct {
	pages [][]T
	n     int
}

func (p *paged[T]) push(v T) {
	if p.n>>pageBits == len(p.pages) {
		p.addPage()
	}
	p.pages[p.n>>pageBits][p.n&pageMask] = v
	p.n++
}

//go:noinline
func (p *paged[T]) addPage() { // out of line: push inlines as an index and a store
	//lint:allow noalloc-closure page allocation; one per pageSize records and absent from the steady-state pins
	p.pages = append(p.pages, make([]T, pageSize))
}

func (p *paged[T]) at(i int) *T { return &p.pages[i>>pageBits][i&pageMask] }

// stateStore is a packed, deduplicating store of state keys (the
// ta.State.AppendKey encodings). Every key of one network has the same
// length, so key id sits at a fixed place in a fixed page; an
// open-addressing table of (hash tag, id) words replaces the
// map[string]int of the original BFS, so steady-state interning allocates
// nothing — no per-state string, no map entry, no retained ta.State.
type stateStore struct {
	keyLen int
	pages  [][]byte // pageSize keys of keyLen bytes each
	n      int      // keys interned
	// table is the open-addressing index: 0 is empty, otherwise
	// tag<<32 | id+1 with tag the low 32 bits of the key's hash. A probe
	// rejects on the tag in the word it loaded, so a miss touches the
	// table only; a tag match is confirmed against the key bytes.
	// Power-of-two sized, linear probing, grown at 3/4 load. The home slot
	// is tag >> shift, the tag's top bits.
	table []uint64
	shift uint
}

// minTableSize keeps the probe mask non-degenerate for tiny stores.
const minTableSize = 64

// newStateStore returns an empty store of keyLen-byte keys.
func newStateStore(keyLen int) *stateStore {
	return &stateStore{
		keyLen: keyLen,
		table:  make([]uint64, minTableSize),
		shift:  32 - uint(bits.TrailingZeros(minTableSize)),
	}
}

// key returns the bytes of key id. The slice aliases a key page and stays
// valid and unchanged for the life of the store.
func (st *stateStore) key(id int) []byte {
	off := (id & pageMask) * st.keyLen
	return st.pages[id>>pageBits][off : off+st.keyLen : off+st.keyLen]
}

// find probes for key (with its precomputed hash): the id of the stored
// copy when present, otherwise the empty slot the key belongs in, good for
// insert until the next insert. It never mutates the store.
func (st *stateStore) find(key []byte, h uint64) (id int, slot uint32, found bool) {
	tag := uint32(h)
	mask := uint32(len(st.table) - 1)
	i := tag >> st.shift
	for {
		s := st.table[i]
		if s == 0 {
			return 0, i, false
		}
		if uint32(s>>32) == tag {
			if cand := int(uint32(s)) - 1; string(st.key(cand)) == string(key) {
				return cand, i, true
			}
		}
		i = (i + 1) & mask
	}
}

// insert stores a copy of key — which find just reported absent, at slot
// — and returns its fresh id. key itself is never retained.
func (st *stateStore) insert(key []byte, h uint64, slot uint32) int {
	id := st.replace(key, h, slot)
	if (st.n+1)*4 > len(st.table)*3 {
		st.grow()
	}
	return id
}

// replace stores a copy of key as a fresh id and points slot, where find
// just reported key, at it: the older id keeps its bytes but is found no
// more, and the table gains no entry. (insert is replace into an empty
// slot, then growth.)
func (st *stateStore) replace(key []byte, h uint64, slot uint32) int {
	id := st.n
	if id>>pageBits == len(st.pages) {
		//lint:allow noalloc-closure page allocation; one per pageSize keys and absent from the steady-state pins
		st.pages = append(st.pages, make([]byte, pageSize*st.keyLen))
	}
	copy(st.pages[id>>pageBits][(id&pageMask)*st.keyLen:], key[:st.keyLen])
	st.n++
	st.table[slot] = uint64(uint32(h))<<32 | uint64(id+1)
	return id
}

// intern dedups key into the store: the id of the existing copy when seen
// before, otherwise a fresh id (added true). The caller supplies the hash,
// as for find and insert.
func (st *stateStore) intern(key []byte, h uint64) (id int, added bool) {
	id, slot, found := st.find(key, h)
	if found {
		return id, false
	}
	return st.insert(key, h, slot), true
}

// grow doubles the table and reinserts every slot word as it stands: the
// tag it carries is all the placement needs, so no key is re-read.
func (st *stateStore) grow() {
	//lint:allow noalloc-closure amortized hash-table doubling; O(1) amortized per intern and absent from the steady-state pins
	next := make([]uint64, 2*len(st.table))
	st.shift--
	mask := uint32(len(next) - 1)
	for _, s := range st.table {
		if s == 0 {
			continue
		}
		i := uint32(s>>32) >> st.shift
		for next[i] != 0 {
			i = (i + 1) & mask
		}
		next[i] = s
	}
	st.table = next
}

// hashKey mixes key 8 bytes at a time (FNV-style over words with an
// avalanche finish); state keys are short and uniform, so this beats
// byte-at-a-time hashing without pulling in a real hash dependency.
func hashKey(key []byte) uint64 {
	const m = 0x9E3779B97F4A7C15 // 2^64 / phi
	h := uint64(len(key))*m + 1
	for len(key) >= 8 {
		k := uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24 |
			uint64(key[4])<<32 | uint64(key[5])<<40 | uint64(key[6])<<48 | uint64(key[7])<<56
		h = (h ^ k) * m
		key = key[8:]
	}
	var tail uint64
	for i := len(key) - 1; i >= 0; i-- {
		tail = tail<<8 | uint64(key[i])
	}
	h = (h ^ tail) * m
	h ^= h >> 32
	h *= m
	h ^= h >> 29
	return h
}
