// Package workload provides the 21 synthetic SPEC CPU2006 proxy
// benchmarks the reproduction evaluates (the paper's benchmark list, §V).
// Each proxy is an assembly program composed from parameterized kernels
// whose knobs — never/always/occasionally-colliding load mix, dependence
// distance stability, silent-store rate, partial-word rate, footprint
// (cache-miss rate), branchiness, FP latency pressure — are set to match
// the qualitative per-benchmark signatures the paper reports. See
// DESIGN.md §1 for the substitution rationale.
package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
)

// builder accumulates the init, text and data sections of a generated
// program. Kernels with a persistent cursor (sweeping a table or array
// across outer iterations) hold it in a callee-saved register allocated
// with sreg and initialized once before the outer loop.
type builder struct {
	init    strings.Builder
	text    strings.Builder
	data    []byte
	rng     *rand.Rand
	blockID int
	sRegs   int
}

func newBuilder(seed int64) *builder {
	return &builder{rng: rand.New(rand.NewSource(seed))}
}

// prefix returns a unique label prefix for the next kernel block.
func (b *builder) prefix() string {
	b.blockID++
	return fmt.Sprintf("k%d_", b.blockID)
}

func (b *builder) t(format string, args ...any) {
	fmt.Fprintf(&b.text, format+"\n", args...)
}

func (b *builder) d(format string, args ...any) {
	b.data = fmt.Appendf(b.data, format+"\n", args...)
}

// growWords grows data once for n dWord lines of p+name, so a pointer
// table of hundreds of thousands of lines does not regrow the buffer by
// doubling. Ten bytes cover any int32 offset.
func (b *builder) growWords(p, name string, n int) {
	b.data = slices.Grow(b.data, n*(len("\t.word +\n")+len(p)+len(name)+10))
}

// dWord appends a data word holding the address p+name+off. It uses
// strconv, not fmt: the pointer-table kernels write one such line per
// table entry, hundreds of thousands for mcf, and formatting them held
// most of Source's time.
func (b *builder) dWord(p, name string, off int) {
	b.data = append(append(append(b.data, "\t.word "...), p...), name...)
	b.data = strconv.AppendInt(append(b.data, '+'), int64(off), 10)
	b.data = append(b.data, '\n')
}

func (b *builder) i(format string, args ...any) {
	fmt.Fprintf(&b.init, format+"\n", args...)
}

// sreg allocates a callee-saved cursor register ($s0..$s5).
func (b *builder) sreg() string {
	if b.sRegs >= 6 {
		panic("workload: out of cursor registers")
	}
	r := fmt.Sprintf("$s%d", b.sRegs)
	b.sRegs++
	return r
}

// Kernel conventions: $s7 holds the outer loop counter and $s6 the shared
// LCG state — kernels must preserve $s7 and may step $s6. $t0..$t9 are
// block-local scratch; $a0..$a3/$v0/$v1 carry the ALU padding chains.

// pad emits n independent ALU instructions, diluting memory density to
// SPEC-like levels (~25-30% memory operations).
func (b *builder) pad(n int) {
	ops := []string{
		"\tadd $a0, $a0, $v0",
		"\txor $a1, $a1, $a0",
		"\taddi $v0, $v0, 3",
		"\tsll $a2, $a1, 1",
		"\tsub $a3, $a2, $v0",
		"\tor $v1, $a3, $a0",
	}
	for i := 0; i < n; i++ {
		b.t("%s", ops[i%len(ops)])
	}
}

// ocPointer emits the paper's Fig. 1 occasionally-colliding pattern:
// pointers are read from a table and the pointed-to word is incremented;
// consecutive equal pointers create store-to-load collisions at distance
// zero. adjDup is the probability a table entry repeats its predecessor
// (stable, learnable distance); gapDup is the probability it repeats a
// random earlier entry (unstable distance — the bzip2 Fig. 13
// behaviour). A large slot pool makes non-adjacent reuse land on
// long-committed stores (the IndepStore case DMDP handles); a small pool
// keeps the alternative writer in flight (the DiffStore case it cannot).
func (b *builder) ocPointer(slots, tableLen int, adjDup, gapDup float64, iters, padN int, partial bool) {
	p := b.prefix()
	elem := 4
	if partial {
		elem = 2
	}
	b.d("%sslots:", p)
	b.d("\t.space %d", slots*elem)
	b.d("\t.align 2")
	b.d("%sptrs:", p)
	// Non-duplicate entries advance round-robin, so a slot recurs only
	// after ~slots stores: by then its writer has committed and the
	// mispredicted case is cleanly IndepStore. gapDup reintroduces
	// short-range recurrence (in-flight DiffStore churn, Fig. 13).
	prev := 0
	hist := make([]int, 0, tableLen)
	b.growWords(p, "slots", tableLen)
	for i := 0; i < tableLen; i++ {
		var s int
		switch r := b.rng.Float64(); {
		case i > 0 && r < adjDup:
			s = prev
		case len(hist) > 8 && r < adjDup+gapDup:
			s = hist[len(hist)-2-b.rng.Intn(6)]
		default:
			s = (prev + 1) % slots
		}
		hist = append(hist, s)
		prev = s
		b.dWord(p, "slots", s*elem)
	}
	b.d("%sptrs_end:", p)

	ld, st := "lw", "sw"
	if partial {
		ld, st = "lhu", "sh"
	}
	// The register cursor persists across outer iterations so the whole
	// table is swept cyclically: slot recurrence distances stay long
	// (committed writers) except for the engineered adjacent/gap
	// duplicates.
	cur := b.sreg()
	b.i("\tla %s, %sptrs", cur, p)
	b.t("\tla $t8, %sptrs_end", p)
	b.t("\tli $t1, %d", min(iters, tableLen))
	b.t("%sloop:", p)
	b.t("\tlw $t2, 0(%s)", cur) // ptr = a[i]
	b.t("\t%s $t3, 0($t2)", ld) // x[ptr]
	b.t("\taddi $t3, $t3, 1")
	b.t("\t%s $t3, 0($t2)", st) // x[ptr]++
	b.pad(padN)
	b.t("\taddi %s, %s, 4", cur, cur)
	b.t("\tbne %s, $t8, %snowrap", cur, p)
	b.t("\tla %s, %sptrs", cur, p)
	b.t("%snowrap:", p)
	b.t("\taddi $t1, $t1, -1")
	b.t("\tbnez $t1, %sloop", p)
}

// stream emits a sequential sweep over a large array (never-colliding
// loads; footprint sets the cache-miss rate). When write is true every
// element is read-modified-written (dirty evictions, store misses — the
// lbm signature).
func (b *builder) stream(bytes, iters, stride, padN int, write bool) {
	p := b.prefix()
	b.d("%sarr:", p)
	b.d("\t.space %d", bytes)
	b.d("%send:", p)
	cur := b.sreg()
	b.i("\tla %s, %sarr", cur, p)
	b.t("\tla $t8, %send", p)
	b.t("\tli $t1, %d", iters)
	b.t("%sloop:", p)
	b.t("\tlw $t2, 0(%s)", cur)
	b.t("\taddi $t2, $t2, 3")
	if write {
		b.t("\tsw $t2, 0(%s)", cur)
	}
	b.pad(padN)
	b.t("\taddi %s, %s, %d", cur, cur, stride)
	b.t("\tbne %s, $t8, %snowrap", cur, p)
	b.t("\tla %s, %sarr", cur, p)
	b.t("%snowrap:", p)
	b.t("\taddi $t1, $t1, -1")
	b.t("\tbnez $t1, %sloop", p)
}

// stack emits register spill/fill traffic: always-colliding loads with
// stable distances — the bread and butter of memory cloaking.
func (b *builder) stack(depth, iters, padN int) {
	p := b.prefix()
	b.d("%sframe:", p)
	b.d("\t.space %d", depth*4+16)
	b.t("\tla $t9, %sframe", p)
	b.t("\tli $t1, %d", iters)
	b.t("\tli $t2, 1")
	b.t("%sloop:", p)
	for i := 0; i < depth; i++ {
		b.t("\tsw $t2, %d($t9)", i*4)
	}
	b.pad(padN)
	for i := 0; i < depth; i++ {
		b.t("\tlw $t%d, %d($t9)", 3+i%4, i*4)
	}
	b.t("\tadd $t2, $t2, $t3")
	b.t("\taddi $t1, $t1, -1")
	b.t("\tbnez $t1, %sloop", p)
}

// linked emits a serial pointer chase over a randomly permuted cyclic
// list: never-colliding, cache-missing, latency-bound (the mcf
// signature).
func (b *builder) linked(nodes, iters int) {
	p := b.prefix()
	perm := b.rng.Perm(nodes)
	next := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		next[perm[i]] = perm[(i+1)%nodes]
	}
	b.d("%snodes:", p)
	b.growWords(p, "nodes", nodes)
	for i := 0; i < nodes; i++ {
		b.dWord(p, "nodes", next[i]*4)
	}
	cur := b.sreg()
	b.i("\tla %s, %snodes", cur, p)
	b.t("\tli $t1, %d", iters)
	b.t("%sloop:", p)
	b.t("\tlw %s, 0(%s)", cur, cur)
	b.t("\taddi $t1, $t1, -1")
	b.t("\tbnez $t1, %sloop", p)
}

// linkedRMW is the mcf flavour: chase a pointer, then store a value
// derived from the (cache-missing) load and immediately reload it — the
// colliding store depends on a miss, so even bypassing is slow (paper
// §II: mcf's bypassing loads are slower than its delayed loads).
func (b *builder) linkedRMW(nodes, iters int) {
	p := b.prefix()
	perm := b.rng.Perm(nodes)
	next := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		next[perm[i]] = perm[(i+1)%nodes]
	}
	b.d("%snodes:", p)
	b.growWords(p, "nodes", nodes)
	for i := 0; i < nodes; i++ {
		b.dWord(p, "nodes", next[i]*4)
	}
	b.d("%sacc:", p)
	b.d("\t.word 0")
	cur := b.sreg()
	b.i("\tla %s, %snodes", cur, p)
	b.t("\tla $t8, %sacc", p)
	b.t("\tli $t1, %d", iters)
	b.t("%sloop:", p)
	b.t("\tlw %s, 0(%s)", cur, cur) // miss-prone chase
	b.t("\tsw %s, 0($t8)", cur)     // store depends on the miss
	b.t("\tlw $t2, 0($t8)")         // always collides (AC) but data is late
	b.pad(2)
	b.t("\taddi $t1, $t1, -1")
	b.t("\tbnez $t1, %sloop", p)
}

// lcgStep emits an LCG advance of $s6 into $t5 (pseudo-random data for
// branches and indices; deterministic per seed).
func (b *builder) lcgStep() {
	b.t("\tli $t4, 1103515245")
	b.t("\tmul $s6, $s6, $t4")
	b.t("\taddi $s6, $s6, 12345")
	b.t("\tsrl $t5, $s6, 9")
}

// hashRMW emits hashed read-modify-write bucket updates: loads are
// predicted dependent after rare same-bucket repeats but are almost
// always independent of any in-flight store — the IndepStore-dominated
// low-confidence population of Fig. 5 (milc/lbm signature).
func (b *builder) hashRMW(buckets, iters, padN int) {
	p := b.prefix()
	b.d("%stab:", p)
	b.d("\t.space %d", buckets*4)
	b.t("\tla $t0, %stab", p)
	b.t("\tli $t1, %d", iters)
	b.t("%sloop:", p)
	b.lcgStep()
	b.t("\tandi $t5, $t5, %d", buckets-1)
	b.t("\tsll $t5, $t5, 2")
	b.t("\tadd $t6, $t0, $t5")
	b.t("\tlw $t7, 0($t6)")
	b.t("\taddi $t7, $t7, 1")
	b.t("\tsw $t7, 0($t6)")
	b.pad(padN)
	b.t("\taddi $t1, $t1, -1")
	b.t("\tbnez $t1, %sloop", p)
}

// branchyStoreLoad emits path-dependent store distances: a data-dependent
// branch inserts an extra store between a store and its dependent load,
// so the distance is 0 on one path and 1 on the other — exercising the
// path-sensitive Store Distance Predictor.
func (b *builder) branchyStoreLoad(iters, padN int) {
	p := b.prefix()
	b.d("%sslot:", p)
	b.d("\t.space 16")
	b.t("\tla $t8, %sslot", p)
	b.t("\tli $t1, %d", iters)
	b.t("\tli $t2, 7")
	b.t("%sloop:", p)
	// Deterministic alternation: the branch itself predicts well and the
	// path-sensitive Store Distance Predictor can learn both distances
	// (the paper's motivation for the path-sensitive table, §IV-A d).
	b.t("\tandi $t6, $t1, 1")
	b.t("\tsw $t2, 0($t8)")
	b.t("\tbeqz $t6, %sskip", p)
	b.t("\tsw $t2, 8($t8)") // extra store shifts the distance on this path
	b.t("%sskip:", p)
	b.t("\tlw $t3, 0($t8)")
	b.t("\tadd $t2, $t2, $t3")
	b.pad(padN)
	b.t("\taddi $t1, $t1, -1")
	b.t("\tbnez $t1, %sloop", p)
}

// silentVar emits silent stores (repeatedly writing the same value) with
// a data-dependent intervening store that perturbs the dependence
// distance — the hmmer signature where the silent-store-aware predictor
// update creates hard-to-predict dependencies (paper §VI-a).
func (b *builder) silentVar(iters, padN int) {
	p := b.prefix()
	b.d("%sslot:", p)
	b.d("\t.space 16")
	b.t("\tla $t8, %sslot", p)
	b.t("\tli $t1, %d", iters)
	b.t("\tli $t2, 42") // the silent value: never changes
	b.t("%sloop:", p)
	b.lcgStep()
	b.t("\tandi $t6, $t5, 15")
	b.t("\tsw $t2, 0($t8)") // silent store
	b.t("\tbnez $t6, %sskip", p)
	b.t("\tsw $t5, 4($t8)") // occasional pad store: distance jitters
	b.t("%sskip:", p)
	b.t("\tlw $t3, 0($t8)")
	b.t("\tadd $t7, $t7, $t3")
	b.pad(padN)
	b.t("\taddi $t1, $t1, -1")
	b.t("\tbnez $t1, %sloop", p)
}

// fpStream emits a floating-point streaming kernel: loads feed
// long-latency FP-proxy chains whose results are stored back.
func (b *builder) fpStream(bytes, iters, stride, divEvery int) {
	p := b.prefix()
	b.d("%sarr:", p)
	b.d("\t.space %d", bytes)
	b.d("%send:", p)
	cur := b.sreg()
	b.i("\tla %s, %sarr", cur, p)
	b.t("\tla $t8, %send", p)
	b.t("\tli $t1, %d", iters)
	b.t("\tli $t7, 3")
	b.t("%sloop:", p)
	b.t("\tlw $t2, 0(%s)", cur)
	b.t("\tfmul $t3, $t2, $t7")
	b.t("\tfadd $t3, $t3, $t2")
	if divEvery > 0 {
		b.t("\tandi $t6, $t1, %d", divEvery-1)
		b.t("\tbnez $t6, %snodiv", p)
		b.t("\tfdiv $t3, $t3, $t7")
		b.t("%snodiv:", p)
	}
	b.t("\tsw $t3, 0(%s)", cur)
	b.pad(3)
	b.t("\taddi %s, %s, %d", cur, cur, stride)
	b.t("\tbne %s, $t8, %snowrap", cur, p)
	b.t("\tla %s, %sarr", cur, p)
	b.t("%snowrap:", p)
	b.t("\taddi $t1, $t1, -1")
	b.t("\tbnez $t1, %sloop", p)
}

// splitFPStream reads one large array and writes a second one (the lbm
// lattice-to-lattice pattern): the stores miss the cache, so commit
// latency is long and the store buffer is the bottleneck — the paper's
// most store-buffer-sensitive benchmark (Fig. 14) with the most
// re-execution stalls (Table VII).
func (b *builder) splitFPStream(bytes, iters, stride int) {
	p := b.prefix()
	b.d("%ssrc:", p)
	b.d("\t.space %d", bytes)
	b.d("%ssrcend:", p)
	b.d("%sdst:", p)
	b.d("\t.space %d", bytes)
	src := b.sreg()
	dst := b.sreg()
	b.i("\tla %s, %ssrc", src, p)
	b.i("\tla %s, %sdst", dst, p)
	b.t("\tla $t8, %ssrcend", p)
	b.t("\tli $t1, %d", iters)
	b.t("\tli $t7, 3")
	b.t("%sloop:", p)
	b.t("\tlw $t2, 0(%s)", src)
	b.t("\tfmul $t3, $t2, $t7")
	b.t("\tfadd $t3, $t3, $t2")
	b.t("\tsw $t3, 0(%s)", dst)
	b.pad(3)
	b.t("\taddi %s, %s, %d", src, src, stride)
	b.t("\taddi %s, %s, %d", dst, dst, stride)
	b.t("\tbne %s, $t8, %snowrap", src, p)
	b.t("\tla %s, %ssrc", src, p)
	b.t("\tla %s, %sdst", dst, p)
	b.t("%snowrap:", p)
	b.t("\taddi $t1, $t1, -1")
	b.t("\tbnez $t1, %sloop", p)
}

// compute emits a pure register-register dependency chain (dilutes memory
// traffic; the namd signature).
func (b *builder) compute(iters int) {
	p := b.prefix()
	b.t("\tli $t1, %d", iters)
	b.t("\tli $t2, 17")
	b.t("\tli $t3, 5")
	b.t("%sloop:", p)
	b.t("\tmul $t2, $t2, $t3")
	b.t("\taddi $t2, $t2, 11")
	b.t("\txor $t3, $t3, $t2")
	b.t("\tandi $t3, $t3, 1023")
	b.t("\taddi $t3, $t3, 3")
	b.t("\taddi $t1, $t1, -1")
	b.t("\tbnez $t1, %sloop", p)
}

// wrfChain emits a serial accumulator threaded through memory where the
// store's target alternates between two slots in long phases (period
// 2*phase iterations): within a phase the dependence is stable (cloaking
// works), at the boundary it flips. During the non-colliding phase the
// load's actual writer is long committed, so DMDP's predication reads the
// cache correctly while NoSQ keeps delaying — and because the program's
// critical path runs through the load, NoSQ serializes the loop (the wrf
// signature, §VI-c: +34.1% over NoSQ, NoSQ below baseline).
func (b *builder) wrfChain(iters, phase, padN int) {
	p := b.prefix()
	b.d("%sslots:", p)
	b.d("\t.space 16")
	b.t("\tla $t8, %sslots", p)
	b.t("\tli $t1, %d", iters)
	b.t("\tli $t2, 1")
	b.t("%sloop:", p)
	b.t("\tandi $t6, $s7, %d", phase) // slow phase bit from the outer counter
	b.t("\tsrl $t6, $t6, %d", log2(phase)-2)
	b.t("\tadd $t7, $t8, $t6")
	b.t("\tsw $t2, 0($t7)")   // store to slot 0 or slot 4+
	b.t("\tlw $t3, 0($t8)")   // collides only in phase 0
	b.t("\taddi $t2, $t3, 1") // serial chain through the load
	b.pad(padN)
	b.t("\taddi $t1, $t1, -1")
	b.t("\tbnez $t1, %sloop", p)
}

func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
