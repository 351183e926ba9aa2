package core

import (
	"fmt"
	"io"
	"strings"
)

// StageTimes records one retired instruction's flow through the pipeline
// (cycle numbers), for the pipeline-view debugging tool.
type StageTimes struct {
	Idx      int
	PC       uint32
	Disasm   string
	Renamed  int64
	Complete int64
	Retired  int64
	// ValueAt is when a load's result became available (0 for others).
	ValueAt int64
	IsLoad  bool
	Cat     LoadCategory
	Uops    int
	// Squashes counts how many times this trace index was flushed and
	// refetched before retiring.
	Squashes int
}

// PipeTracer collects StageTimes for the first Max retired instructions.
type PipeTracer struct {
	Max      int
	Records  []StageTimes
	squashes map[int]int
}

// AttachTracer enables pipeline tracing for the first max retired
// instructions. Must be called before Run.
func (c *Core) AttachTracer(max int) *PipeTracer {
	c.tracer = &PipeTracer{Max: max, squashes: make(map[int]int)}
	return c.tracer
}

func (p *PipeTracer) onRetire(in *inst, now int64) {
	if len(p.Records) >= p.Max {
		return
	}
	p.Records = append(p.Records, StageTimes{
		Idx:      in.idx,
		PC:       in.e.PC,
		Disasm:   in.d.instr.String(),
		Renamed:  in.renamedAt,
		Complete: in.completedAt,
		Retired:  now,
		ValueAt:  in.valueAt,
		IsLoad:   in.isLoad(),
		Cat:      in.cat,
		Uops:     int(in.nUops),
		Squashes: p.squashes[in.idx],
	})
}

func (p *PipeTracer) onSquash(idx int) {
	if p.squashes != nil {
		p.squashes[idx]++
	}
}

// Render writes a textual pipeline view: one line per instruction with a
// scaled R(ename)...C(omplete)...X(retire) timeline.
func (p *PipeTracer) Render(w io.Writer) {
	if len(p.Records) == 0 {
		fmt.Fprintln(w, "pipeview: no records")
		return
	}
	base := p.Records[0].Renamed
	const cols = 64
	span := p.Records[len(p.Records)-1].Retired - base + 1
	if span < 1 {
		span = 1
	}
	scale := func(cyc int64) int {
		pos := int((cyc - base) * cols / span)
		if pos < 0 {
			pos = 0
		}
		if pos >= cols {
			pos = cols - 1
		}
		return pos
	}
	fmt.Fprintf(w, "pipeview: %d instructions, cycles %d..%d (R=rename C=complete X=retire, %d cycles/col)\n",
		len(p.Records), base, p.Records[len(p.Records)-1].Retired, span/cols+1)
	for _, r := range p.Records {
		line := []byte(strings.Repeat(".", cols))
		rp, cp, xp := scale(r.Renamed), scale(r.Complete), scale(r.Retired)
		for i := rp; i <= xp && i < cols; i++ {
			line[i] = '-'
		}
		line[rp] = 'R'
		line[cp] = 'C'
		line[xp] = 'X'
		note := ""
		if r.IsLoad {
			note = r.Cat.String()
		}
		if r.Squashes > 0 {
			note += fmt.Sprintf(" squashed x%d", r.Squashes)
		}
		fmt.Fprintf(w, "%6d %08x %-24s |%s| %s\n", r.Idx, r.PC, clip(r.Disasm, 24), line, note)
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
