package core

import (
	"testing"
	"unsafe"

	"dmdp/internal/config"
	"dmdp/internal/isa"
)

// ---------- regFile ----------

func TestRegFileInitialState(t *testing.T) {
	rf := newRegFile(64)
	if rf.freeCount() != 64-isa.NumLogicalRegs {
		t.Fatalf("free count %d", rf.freeCount())
	}
	for l := 0; l < isa.NumLogicalRegs; l++ {
		if rf.rat[l] != l || rf.arat[l] != l {
			t.Fatal("initial maps wrong")
		}
		if !rf.regs[l].ready || rf.regs[l].producers != 1 {
			t.Fatal("initial registers must be ready with one producer")
		}
	}
	if err := rf.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRegFileAllocRelease(t *testing.T) {
	rf := newRegFile(64)
	p := rf.alloc()
	if rf.regs[p].free || rf.regs[p].producers != 1 {
		t.Fatal("alloc state wrong")
	}
	rf.dropProducer(p)
	if !rf.regs[p].free {
		t.Fatal("register should be free")
	}
	if err := rf.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRegFileConsumerDelaysRelease(t *testing.T) {
	rf := newRegFile(64)
	p := rf.alloc()
	rf.addConsumer(p) // e.g. a store pending commit
	rf.dropProducer(p)
	if rf.regs[p].free {
		t.Fatal("consumer must delay release (paper §IV-B)")
	}
	rf.dropConsumer(p)
	if !rf.regs[p].free {
		t.Fatal("register should free once the consumer drops")
	}
}

func TestRegFileDoubleDefinition(t *testing.T) {
	// Cloaking / CMOV pairs: two producers, two virtual releases.
	rf := newRegFile(64)
	p := rf.alloc()
	rf.addProducer(p)
	rf.dropProducer(p)
	if rf.regs[p].free {
		t.Fatal("one producer remains")
	}
	rf.dropProducer(p)
	if !rf.regs[p].free {
		t.Fatal("both definitions released")
	}
}

func TestRegFileNegativeRefRecorded(t *testing.T) {
	rf := newRegFile(64)
	p := rf.alloc()
	rf.dropProducer(p)
	rf.dropProducer(p)
	if rf.badRef == nil {
		t.Fatal("expected refcount underflow to be recorded")
	}
	if rf.badRef.p != p || rf.badRef.producers != -1 {
		t.Fatalf("underflow misattributed: %+v", rf.badRef)
	}
	if err := rf.checkInvariants(); err == nil {
		t.Fatal("checkInvariants must report the underflow")
	}
	// First underflow wins: a later one must not overwrite the record.
	q := rf.alloc()
	rf.dropConsumer(q)
	if rf.badRef.p != p {
		t.Fatalf("first underflow overwritten: %+v", rf.badRef)
	}
}

func TestRegFileWakeup(t *testing.T) {
	rf := newRegFile(64)
	p := rf.alloc()
	u := &uop{}
	if !rf.await(p, u) {
		t.Fatal("fresh register must not be ready")
	}
	woken := rf.setReady(p)
	if len(woken) != 1 || woken[0] != u {
		t.Fatal("waiter not woken")
	}
	if rf.await(p, &uop{}) {
		t.Fatal("ready register must not register waiters")
	}
}

func TestRegFileResetToARAT(t *testing.T) {
	rf := newRegFile(64)
	// Speculative state: remap $t0 to a fresh register.
	p := rf.alloc()
	rf.rat[isa.T0] = p
	// A store buffer entry still references two registers.
	s1, s2 := rf.alloc(), rf.alloc()
	rf.resetToARAT([]int{s1, s2})
	if rf.rat[isa.T0] != rf.arat[isa.T0] {
		t.Fatal("RAT not restored")
	}
	if rf.regs[p].free == false {
		t.Fatal("speculative register should be freed")
	}
	if rf.regs[s1].free || rf.regs[s2].free {
		t.Fatal("store buffer references must survive")
	}
	if rf.regs[s1].consumers != 1 {
		t.Fatal("consumer count not rebuilt")
	}
	if err := rf.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// ---------- robQ ----------

func TestRobQFIFO(t *testing.T) {
	q := newRobQ(4)
	for i := 0; i < 4; i++ {
		q.next().idx = i
		q.push()
	}
	if !q.full() {
		t.Fatal("should be full")
	}
	for i := 0; i < 4; i++ {
		if q.front().idx != i {
			t.Fatalf("front %d, want %d", q.front().idx, i)
		}
		q.popFront()
	}
	if !q.empty() {
		t.Fatal("should be empty")
	}
}

func TestRobQWrapAround(t *testing.T) {
	q := newRobQ(3)
	push := func(idx int) {
		q.next().idx = idx
		q.push()
	}
	push(0)
	push(1)
	q.popFront()
	push(2)
	push(3) // wraps
	if q.len() != 3 {
		t.Fatalf("len %d", q.len())
	}
	want := []int{1, 2, 3}
	for i, w := range want {
		if q.at(i).idx != w {
			t.Fatalf("at(%d) = %d, want %d", i, q.at(i).idx, w)
		}
	}
	// The slots are the instructions' storage: the one popFront retired
	// is the one the wrapping push reused.
	if q.at(2) != &q.buf[0] {
		t.Fatal("wrapping push did not reuse the retired slot")
	}
	q.clear()
	if !q.empty() {
		t.Fatal("clear failed")
	}
}

// TestUopFitsOneCacheLine pins the uop's size to one 64-byte host cache
// line: a field added to it must pay for itself or replace one.
func TestUopFitsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(uop{}); n != 64 {
		t.Fatalf("uop is %d bytes, want 64", n)
	}
}

// ---------- storeBuffer ----------

func TestStoreBufferCapacity(t *testing.T) {
	sb := newStoreBuffer(2, false)
	sb.push(sbEntry{ssn: 1})
	if sb.full() {
		t.Fatal("not full yet")
	}
	sb.push(sbEntry{ssn: 2})
	if !sb.full() || sb.len() != 2 {
		t.Fatal("capacity accounting wrong")
	}
}

func TestStoreBufferRegRefs(t *testing.T) {
	sb := newStoreBuffer(4, false)
	sb.push(sbEntry{ssn: 1, dataPhys: 10, addrPhys: 11})
	sb.push(sbEntry{ssn: 2, dataPhys: 12, addrPhys: 13})
	refs := sb.regRefs(nil)
	if len(refs) != 4 {
		t.Fatalf("refs %v", refs)
	}
}

func TestStoreBufferOldestUncommitted(t *testing.T) {
	sb := newStoreBuffer(4, true)
	if got := sb.oldestUncommittedSSN(7); got != 7 {
		t.Fatalf("empty buffer should report retired SSN, got %d", got)
	}
	sb.push(sbEntry{ssn: 5})
	sb.push(sbEntry{ssn: 6})
	if got := sb.oldestUncommittedSSN(7); got != 4 {
		t.Fatalf("got %d, want 4", got)
	}
}

func TestStoreBufferSameWordOrdering(t *testing.T) {
	sb := newStoreBuffer(4, true)
	sb.push(sbEntry{ssn: 1, addr: 0x100})
	sb.push(sbEntry{ssn: 2, addr: 0x102}) // same word
	sb.push(sbEntry{ssn: 3, addr: 0x200})
	if sb.hasOlderSameWord(0) {
		t.Fatal("oldest entry has no older same-word write")
	}
	if !sb.hasOlderSameWord(1) {
		t.Fatal("entry 1 shares a word with entry 0")
	}
	if sb.hasOlderSameWord(2) {
		t.Fatal("entry 2 is alone on its word")
	}
}

// ---------- store coalescing (behavioural, via the core) ----------

func TestStoreCoalescingCountsConsecutiveSameWord(t *testing.T) {
	src := `
	li $t0, 300
	li $t1, 0x10010000
loop:
	sw $t0, 0($t1)
	sw $t0, 0($t1)
	sw $t0, 0($t1)
	addi $t0, $t0, -1
	bnez $t0, loop
	halt
`
	tr := traceOf(t, src, 50000)
	st := runModel(t, tr, config.DMDP)
	if st.StoresCoalesced < 200 {
		t.Fatalf("expected consecutive same-word stores to coalesce, got %d", st.StoresCoalesced)
	}
}

func TestLatencyBuckets(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 1 << 22: 23, 1 << 40: 23}
	for lat, want := range cases {
		if got := latencyBucket(lat); got != want {
			t.Errorf("latencyBucket(%d) = %d, want %d", lat, got, want)
		}
	}
}

func TestLoadLatencyPercentiles(t *testing.T) {
	var st Stats
	// 90 fast loads (latency 1), 10 slow (latency ~100).
	st.LoadLatency[latencyBucket(1)] = 90
	st.LoadLatency[latencyBucket(100)] = 10
	if p := st.LoadLatencyPercentile(50); p > 2 {
		t.Fatalf("p50 = %d", p)
	}
	if p := st.LoadLatencyPercentile(99); p < 100 {
		t.Fatalf("p99 = %d", p)
	}
	var empty Stats
	if empty.LoadLatencyPercentile(50) != 0 {
		t.Fatal("empty histogram percentile must be 0")
	}
}
