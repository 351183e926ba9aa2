package workload

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"

	"dmdp/internal/asm"
	"dmdp/internal/emu"
	"dmdp/internal/isa"
	"dmdp/internal/trace"
)

// Names returns the benchmark names in paper order (Integer suite first).
func Names() []string {
	out := make([]string, len(specs))
	for i := range specs {
		out[i] = specs[i].Name
	}
	return out
}

// IntNames returns the Integer suite.
func IntNames() []string { return byClass(Int) }

// FloatNames returns the Float suite.
func FloatNames() []string { return byClass(Float) }

func byClass(c Class) []string {
	var out []string
	for i := range specs {
		if specs[i].Class == c {
			out = append(out, specs[i].Name)
		}
	}
	return out
}

// Get returns the spec for a benchmark name.
func Get(name string) (*Spec, bool) {
	for i := range specs {
		if specs[i].Name == name {
			return &specs[i], true
		}
	}
	return nil, false
}

// All returns every spec in paper order.
func All() []*Spec {
	out := make([]*Spec, len(specs))
	for i := range specs {
		out[i] = &specs[i]
	}
	return out
}

// Source generates the proxy's assembly program. The kernel blocks run
// inside an effectively unbounded outer loop; the simulation instruction
// budget bounds execution.
func (s *Spec) Source() string {
	b := newBuilder(s.Seed)
	s.emit(b) // fills text/data/init

	var src strings.Builder
	src.Grow(256 + b.init.Len() + b.text.Len() + len(b.data))
	fmt.Fprintf(&src, "# %s proxy (%s suite)\n", s.Name, s.Class)
	fmt.Fprintf(&src, "# signature: %s\n", s.Signature)
	src.WriteString("\t.text\n")
	src.WriteString("main:\n")
	fmt.Fprintf(&src, "\tli $s6, %d\n", 12345+s.Seed) // LCG state
	src.WriteString(b.init.String())                  // cursor registers
	src.WriteString("\tli $s7, 100000000\n")          // outer iterations (budget-bounded)
	src.WriteString("outer:\n")
	src.WriteString(b.text.String())
	src.WriteString("\taddi $s7, $s7, -1\n")
	src.WriteString("\tbnez $s7, outer\n")
	src.WriteString("\thalt\n")
	src.WriteString("\t.data\n")
	src.Write(b.data)
	return src.String()
}

// SourceHash returns the SHA-256 of the generated assembly source. It is
// the workload component of persistent cache keys: two specs hash equal
// exactly when they generate the same program, so renaming a proxy never
// aliases and regenerating identical source always hits.
func (s *Spec) SourceHash() [sha256.Size]byte {
	return sha256.Sum256([]byte(s.Source()))
}

// Program assembles the proxy.
func (s *Spec) Program() (*isa.Program, error) { return s.assemble(s.Source()) }

// assemble assembles src, the text Source returned.
func (s *Spec) assemble(src string) (*isa.Program, error) {
	p, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", s.Name, err)
	}
	return p, nil
}

// BuildTrace assembles, emulates and analyzes the proxy for at most
// maxInstr instructions.
func (s *Spec) BuildTrace(maxInstr int64) (*trace.Trace, error) {
	return s.BuildTraceFrom(nil, s.Source(), maxInstr)
}

// BuildTraceFrom is BuildTrace over src, the text Source returned, with
// cancellation: a caller that generated the source to hash it for a
// cache key builds from that same text instead of generating it again.
// The emulation polls ctx periodically and aborts with a
// *trace.BuildCanceled error (which unwraps to the context error) when a
// deadline or cancel fires mid-build. A nil ctx never cancels.
func (s *Spec) BuildTraceFrom(ctx context.Context, src string, maxInstr int64) (*trace.Trace, error) {
	p, err := s.assemble(src)
	if err != nil {
		return nil, err
	}
	tr, err := emu.RunCtx(ctx, p, maxInstr)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", s.Name, err)
	}
	return tr, nil
}
