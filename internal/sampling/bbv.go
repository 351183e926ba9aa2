package sampling

import (
	"fmt"
	"math"

	"dmdp/internal/trace"
)

// BBV-style phase detection (SimPoint, Sherwood et al.): execution is cut
// into fixed-length chunks; each chunk is summarized by a basic-block
// vector — how many instructions it spent in each basic block, hashed
// into a fixed number of dimensions and L1-normalized. k-means clusters
// the vectors, and one representative chunk per cluster, weighted by
// cluster population, becomes the sampling plan.
const (
	// BBVDim is the dimensionality of the hashed basic-block vectors.
	BBVDim = 32
	// PlannerVersion is part of persisted plan keys: bumping it after any
	// change to the BBV/clustering algorithm invalidates cached plans.
	PlannerVersion = 1
	// maxKMeansIters bounds Lloyd iterations; assignments almost always
	// stabilize far earlier.
	maxKMeansIters = 64
)

// BBVAccum incrementally builds the basic-block vector of one chunk.
// Feed it every entry of the chunk in order, then call Finish.
type BBVAccum struct {
	vec        [BBVDim]float64
	blockPC    uint32
	blockLen   int
	haveLeader bool
}

// Add accounts one dynamic instruction. A basic block ends at every
// control-flow instruction (branch, jump, call, return); the block is
// identified by its leader PC and weighted by its dynamic length.
func (a *BBVAccum) Add(e *trace.Entry) {
	if !a.haveLeader {
		a.blockPC, a.haveLeader = e.PC, true
	}
	a.blockLen++
	if e.Op.IsControl() {
		a.flush()
	}
}

func (a *BBVAccum) flush() {
	if a.blockLen == 0 {
		return
	}
	a.vec[hash32(a.blockPC)%BBVDim] += float64(a.blockLen)
	a.blockLen, a.haveLeader = 0, false
}

// Finish flushes the trailing partial block, L1-normalizes the vector and
// resets the accumulator for the next chunk.
func (a *BBVAccum) Finish() [BBVDim]float64 {
	a.flush()
	v := a.vec
	var sum float64
	for _, x := range v {
		sum += x
	}
	if sum > 0 {
		for i := range v {
			v[i] /= sum
		}
	}
	a.vec = [BBVDim]float64{}
	return v
}

// hash32 is a splitmix-style avalanche of the block leader PC, so nearby
// PCs spread over the vector dimensions.
func hash32(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

func distSq(a, b *[BBVDim]float64) float64 {
	var d float64
	for i := range a {
		x := a[i] - b[i]
		d += x * x
	}
	return d
}

// kmeans clusters the vectors into at most k clusters and returns the
// per-vector cluster assignment. Fully deterministic: farthest-point
// (maximin) initialization seeded at vector 0, lowest-index tie-breaks,
// and a fixed iteration cap — no RNG anywhere, so the same trace always
// yields the same plan.
func kmeans(vecs [][BBVDim]float64, k int) []int {
	n := len(vecs)
	if k > n {
		k = n
	}
	centers := make([][BBVDim]float64, 0, k)
	centers = append(centers, vecs[0])
	minD := make([]float64, n)
	for i := range vecs {
		minD[i] = distSq(&vecs[i], &centers[0])
	}
	for len(centers) < k {
		far, farD := 0, -1.0
		for i, d := range minD {
			if d > farD {
				far, farD = i, d
			}
		}
		centers = append(centers, vecs[far])
		c := &centers[len(centers)-1]
		for i := range vecs {
			if d := distSq(&vecs[i], c); d < minD[i] {
				minD[i] = d
			}
		}
	}
	assign := make([]int, n)
	for iter := 0; iter < maxKMeansIters; iter++ {
		changed := false
		for i := range vecs {
			best, bestD := 0, math.Inf(1)
			for c := range centers {
				if d := distSq(&vecs[i], &centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i], changed = best, true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids; an emptied cluster is reseeded with the
		// point farthest from its current center (lowest index wins).
		var sums [][BBVDim]float64 = make([][BBVDim]float64, len(centers))
		counts := make([]int, len(centers))
		for i, c := range assign {
			counts[c]++
			for d := range sums[c] {
				sums[c][d] += vecs[i][d]
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				far, farD := 0, -1.0
				for i := range vecs {
					if d := distSq(&vecs[i], &centers[c]); d > farD {
						far, farD = i, d
					}
				}
				centers[c] = vecs[far]
				continue
			}
			for d := range centers[c] {
				centers[c][d] = sums[c][d] / float64(counts[c])
			}
		}
	}
	return assign
}

// AutoPlan clusters per-chunk BBVs into (at most) k phases and returns
// the SimPoint-style plan: per cluster, the member chunk closest to the
// centroid (lowest index on ties) is simulated with weight proportional
// to the cluster's population. chunkLen is the BBV chunk length; only
// full chunks participate (a trailing partial chunk is not represented).
func AutoPlan(bbvs [][BBVDim]float64, chunkLen, k int) (Plan, error) {
	if len(bbvs) == 0 {
		return Plan{}, fmt.Errorf("sampling: no full chunks to cluster (trace shorter than one chunk)")
	}
	if chunkLen <= 0 || k <= 0 {
		return Plan{}, fmt.Errorf("sampling: non-positive auto-plan parameters")
	}
	assign := kmeans(bbvs, k)
	nc := 0
	for _, c := range assign {
		if c+1 > nc {
			nc = c + 1
		}
	}
	// Centroids of the final assignment.
	centroids := make([][BBVDim]float64, nc)
	counts := make([]int, nc)
	for i, c := range assign {
		counts[c]++
		for d := range centroids[c] {
			centroids[c][d] += bbvs[i][d]
		}
	}
	for c := range centroids {
		if counts[c] > 0 {
			for d := range centroids[c] {
				centroids[c][d] /= float64(counts[c])
			}
		}
	}
	// Representative chunk per non-empty cluster.
	type rep struct {
		chunk int
		w     float64
	}
	var reps []rep
	for c := 0; c < nc; c++ {
		if counts[c] == 0 {
			continue
		}
		best, bestD := -1, math.Inf(1)
		for i, a := range assign {
			if a != c {
				continue
			}
			if d := distSq(&bbvs[i], &centroids[c]); d < bestD {
				best, bestD = i, d
			}
		}
		reps = append(reps, rep{chunk: best, w: float64(counts[c]) / float64(len(bbvs))})
	}
	// Plan intervals in ascending start order (deterministic output and
	// the order the rolling slice builder wants).
	for i := 1; i < len(reps); i++ {
		for j := i; j > 0 && reps[j].chunk < reps[j-1].chunk; j-- {
			reps[j], reps[j-1] = reps[j-1], reps[j]
		}
	}
	var p Plan
	for _, r := range reps {
		p.Intervals = append(p.Intervals, Interval{
			Start:  r.chunk * chunkLen,
			End:    (r.chunk + 1) * chunkLen,
			Weight: r.w,
		})
	}
	return p, nil
}
