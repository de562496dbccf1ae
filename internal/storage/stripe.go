package storage

import (
	"fmt"
	"hash/maphash"

	"sicost/internal/core"
)

// stripe.go holds the hashing of the sharded lock table (a 64-bit
// FNV-1a over a lock key's table name, kind and payload, inlined by hand
// rather than hash/fnv because it sits on the per-statement fast path),
// the hash that stripes the row map and the unique index, and the typed
// key map the unique index keeps per stripe.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

func fnvUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// hashLockKey hashes a lockable resource (table, row key).
func hashLockKey(k LockKey) uint64 {
	h := fnvString(fnvOffset64, k.Table)
	h = fnvByte(h, byte(k.Key.K))
	h = fnvUint64(h, uint64(k.Key.I))
	return fnvString(h, k.Key.S)
}

// stringSeed seeds stripeHash for string keys; fixed for the process.
var stringSeed = maphash.MakeSeed()

// stripeHash picks a key's stripe: the caller takes the top bits (and
// the row map the bits below them for a key's first slot). An
// integer key is spread by one multiply (Fibonacci hashing), a string
// key goes through the runtime's string hash. Nothing depends on which
// stripe a key lands in (Table.Range promises no order), so the string
// hash needs no seed that is stable across processes.
func stripeHash(k core.Value) uint64 {
	if k.K == core.KindString {
		return maphash.String(stringSeed, k.S)
	}
	return uint64(k.I) * 0x9E3779B97F4A7C15
}

// keyMap maps a key value to V with one Go map per key type: an integer
// key hashes and compares as an int64 and a string key as a string, so a
// lookup takes the runtime's fast64/faststr map paths instead of hashing
// a whole core.Value. A key of the other kind lives in the other map
// and so misses; NULL has no slot (get misses, put panics). The maps are
// made on first put, and the zero keyMap is empty.
type keyMap[V any] struct {
	ints map[int64]V
	strs map[string]V
}

// get returns the value stored under k, or the zero V.
func (m *keyMap[V]) get(k core.Value) V {
	switch k.K {
	case core.KindInt:
		return m.ints[k.I]
	case core.KindString:
		return m.strs[k.S]
	}
	var zero V
	return zero
}

// put stores v under k. A key that is neither an integer nor a string
// is a caller's bug: a primary key is never NULL (CheckRecord refuses
// one, recovery rejects a log that has one), and the unique index skips
// NULLs before it gets here.
func (m *keyMap[V]) put(k core.Value, v V) {
	switch k.K {
	case core.KindInt:
		if m.ints == nil {
			m.ints = make(map[int64]V)
		}
		m.ints[k.I] = v
	case core.KindString:
		if m.strs == nil {
			m.strs = make(map[string]V)
		}
		m.strs[k.S] = v
	default:
		panic(fmt.Sprintf("storage: a %s key has no slot", k.K))
	}
}

// del removes k.
func (m *keyMap[V]) del(k core.Value) {
	switch k.K {
	case core.KindInt:
		delete(m.ints, k.I)
	case core.KindString:
		delete(m.strs, k.S)
	}
}
