package main

import "time"

// probeRef is the probe time that wall_ref_s and setup_s scale to (see
// scaled). It is near the probe's time on a 2-vCPU Xeon VM, so there the
// scaled times read close to the host's.
const probeRef = 40 * time.Millisecond

// hostProbe is a fixed computation, independent of the simulator, whose
// time says how fast the host runs this process at the moment. On a
// shared host that speed drifts by tens of percent within a minute. The
// probe mixes the kinds of work the simulator does: integer arithmetic
// with data-dependent branches (about a third of its time on a 2-vCPU
// Xeon VM), dependent loads through a table larger than the L2 cache
// (a sixth) and random read-modify-writes of small structs (half).
// Timed beside the simulator on that VM, the arithmetic tracked the
// simulator's slowdowns best and the struct updates next. The probe
// allocates nothing after construction, so it neither triggers nor is
// slowed by the garbage collector's pacing.
type hostProbe struct {
	chain []int32 // a single-cycle random permutation of 16 MiB
	recs  []probeRec
	sink  uint64
}

type probeRec struct {
	a, b uint64
	next int32
	flag bool
}

func newHostProbe() *hostProbe {
	p := &hostProbe{chain: cyclePerm(1<<22, 5), recs: make([]probeRec, 1<<18)}
	for i := range p.recs {
		p.recs[i].next = int32(i * 7919 % len(p.recs))
	}
	return p
}

// cyclePerm returns a random permutation of [0,n) that is one cycle
// (Sattolo's algorithm), so a chase through it visits every slot.
func cyclePerm(n int, seed uint64) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	x := seed
	for i := n - 1; i > 0; i-- {
		x = lcg(x)
		j := int(x>>33) % i
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// probePasses is how often run repeats the probe's kernel. The first
// pass starts with the probe's tables out of cache (the collection
// before it evicts them), and any pass can meet a burst of load, so run
// reports the median pass.
const probePasses = 3

// run performs the probe and returns its time: the median of
// probePasses passes of its kernel.
func (p *hostProbe) run() time.Duration {
	var ds [probePasses]time.Duration
	for i := range ds {
		t0 := time.Now()
		p.kernel()
		ds[i] = time.Since(t0)
	}
	return time.Duration(median(ds[:]) * float64(time.Second))
}

func (p *hostProbe) kernel() {
	x := uint64(1)
	for i := 0; i < 4_000_000; i++ {
		x = lcg(x)
		if x>>63 == 1 {
			x ^= x >> 17
		}
	}
	q := int32(0)
	for i := 0; i < 40_000; i++ {
		q = p.chain[q]
	}
	mask := uint64(len(p.recs) - 1)
	idx := int32(0)
	for i := 0; i < 120_000; i++ {
		x = lcg(x)
		r := &p.recs[idx]
		if r.flag {
			r.a += x
		} else {
			r.b ^= x
		}
		r.flag = x&1 == 1
		r.next = int32((x >> 46) & mask)
		idx = p.recs[(x>>20)&mask].next
	}
	p.sink += x + uint64(q) + uint64(idx)
}
