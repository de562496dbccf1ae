package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"sicost/internal/metrics"
)

// slot.go holds what every transaction writes at its Begin and its end,
// one copy per processor, so that two transactions on two processors
// write no line in common there (DESIGN.md, "Fields written per
// transaction").

// cacheLine is the line size the layout of the engine's shared state
// assumes.
const cacheLine = 64

// slotState is one slot's fields; txSlot pads it to whole lines.
type slotState struct {
	// mu guards the slot's stripe of the snapshot horizon's registry: an
	// intrusive list of open handles in Begin order. A snapshot is taken
	// under it and the visible CSN only grows, so the list is sorted by
	// start and head is the slot's oldest snapshot. ends counts the
	// handles that left the list, the horizon's recomputation clock.
	mu         sync.Mutex
	head, tail *Tx
	ends       uint64
	// open counts the handles Begin registered here and endTx has not
	// retired; Close waits for the sum over the slots to reach zero.
	open atomic.Int64
	// pruned counts versions the slot's committers cut from chains.
	pruned atomic.Uint64
	// metrics is the slot's share of the commit and abort counters and
	// of the commit-latency histogram; DB.TxnMetrics sums the slots.
	metrics metrics.TxnMetrics
}

// txSlot is one processor's slot. Its size is a whole number of lines,
// and the slots are one allocation of more than 512 bytes, which the
// allocator's size classes place on a line boundary: no two slots share
// a line.
type txSlot struct {
	slotState
	_ [cacheLine - unsafe.Sizeof(slotState{})%cacheLine]byte
}

// slotCount is how many slots a database gets: one per processor,
// rounded up to a power of two and at most horizonEvery.
func slotCount() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < horizonEvery {
		n <<= 1
	}
	return n
}

// slotPool hands out a database's slots processor-locally: a Get on a
// processor returns what the last Put there put back, so the
// transactions of one processor keep to one slot. An entry the pool
// drops costs nothing but a New, which hands out the next slot in turn;
// a slot is shared by whoever gets it, and its fields are safe for that.
type slotPool struct {
	pool sync.Pool
	next atomic.Uint64
}

func (p *slotPool) init(slots []txSlot) {
	p.pool.New = func() any {
		return &slots[(p.next.Add(1)-1)%uint64(len(slots))]
	}
}

// get returns the calling processor's slot.
func (p *slotPool) get() *txSlot {
	s := p.pool.Get().(*txSlot)
	p.pool.Put(s)
	return s
}
