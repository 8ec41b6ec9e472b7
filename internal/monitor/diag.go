package monitor

import (
	"fmt"
	"strings"

	"repro/internal/event"
)

// Diagnostic captures the context of one assert-mode violation: where
// the monitor was, what input broke the scenario, and the recent input
// window leading up to it — the counterexample excerpt a verification
// engineer needs to debug the failure.
type Diagnostic struct {
	// Monitor is the chart name of the violated specification.
	Monitor string
	// Tick is the engine-local tick at which the violation fired.
	Tick int
	// FromState is the automaton state abandoned.
	FromState int
	// GridLine is the chart grid line the monitor sat on when the
	// violation fired. For linear SCESC monitors states are synthesized
	// one per grid line, so GridLine equals FromState; for composed
	// (non-linear) monitors no single grid line applies and GridLine
	// is -1.
	GridLine int
	// Guard is the fired guard that routed the run into the violation
	// (rendered from the compiled program's slot names on compiled
	// tiers). Empty for a hard reset, where no guard matched at all.
	Guard string
	// Guards lists every candidate guard of the abandoned state, in
	// transition order — on a hard reset these are the guards that all
	// evaluated false against the offending input.
	Guards []string
	// Valuation is the offending input packed through the monitor's
	// support slot order — the exact table index / program input the
	// compiled tiers evaluated.
	Valuation uint64
	// Input is the offending trace element.
	Input event.State
	// Recent holds up to the configured depth of elements before the
	// offending one, oldest first.
	Recent []event.State
	// Scoreboard lists the live scoreboard entries at the violation.
	Scoreboard []string
}

// String renders a multi-line report.
func (d Diagnostic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "violation at tick %d (abandoned state %d)\n", d.Tick, d.FromState)
	if d.Monitor != "" {
		fmt.Fprintf(&b, "  monitor: %s", d.Monitor)
		if d.GridLine >= 0 {
			fmt.Fprintf(&b, " (grid line %d)", d.GridLine)
		}
		b.WriteByte('\n')
	}
	if d.Guard != "" {
		fmt.Fprintf(&b, "  guard: %s\n", d.Guard)
	} else if len(d.Guards) > 0 {
		fmt.Fprintf(&b, "  no guard matched of: %s\n", strings.Join(d.Guards, " | "))
	}
	for i, s := range d.Recent {
		fmt.Fprintf(&b, "  t-%d: %s\n", len(d.Recent)-i, s)
	}
	fmt.Fprintf(&b, "  t-0: %s   <- offending input\n", d.Input)
	if len(d.Scoreboard) > 0 {
		fmt.Fprintf(&b, "  scoreboard: %s\n", strings.Join(d.Scoreboard, ", "))
	}
	return b.String()
}

// maxDiagnostics bounds the retained reports: the ring keeps the most
// recent maxDiagnostics violations, and counters keep counting past it.
const maxDiagnostics = 32

// diagState is the engine's diagnostic machinery: a ring of the last
// depth inputs plus the bounded report list. A slot holds its input in
// the form it was stepped with — packed words (StepPacked), copied into
// the slot's preallocated stride of words, or a map State (Step) — so
// the packed hot path retains inputs without allocating; maps are
// materialized only when a violation is recorded.
type diagState struct {
	depth int
	next  int
	// filled reports that the ring has wrapped, so every slot holds an
	// input; before that only slots [0, next) do.
	filled bool
	// words backs the packed slots: slot i owns words[i*stride:(i+1)*stride].
	words  []uint64
	stride int
	// packed[i] reports that slot i holds packed words; otherwise it
	// holds states[i].
	packed []bool
	states []event.State
	// unpack expands a packed slot back to a State (nil for engines that
	// are never fed packed input).
	unpack  func(event.Packed) event.State
	reports []Diagnostic
	// sup packs offending inputs for Diagnostic.Valuation (nil when the
	// monitor's support is unavailable).
	sup *event.Support
}

// newDiagState returns an empty ring of depth slots with stride words
// preallocated per slot for packed input.
func newDiagState(depth, stride int, sup *event.Support, unpack func(event.Packed) event.State) *diagState {
	return &diagState{
		depth:  depth,
		words:  make([]uint64, depth*stride),
		stride: stride,
		packed: make([]bool, depth),
		states: make([]event.State, depth),
		unpack: unpack,
		sup:    sup,
	}
}

// EnableDiagnostics makes the engine retain the last `depth` inputs and
// record a Diagnostic for each violation (a bounded ring keeps the most
// recent reports). Call before stepping; depth <= 0 disables.
func (e *Engine) EnableDiagnostics(depth int) {
	if depth <= 0 {
		e.diag = nil
		return
	}
	e.diag = e.newDiagState(depth)
}

// newDiagState sizes a ring for the engine's input forms: program-bound
// engines get packed slots as wide as their StepPacked input (session
// vocabulary or support order) and Valuation provenance over the
// program's support; interpreted engines keep map slots only.
func (e *Engine) newDiagState(depth int) *diagState {
	if e.b == nil {
		sup, _ := e.m.Support()
		return newDiagState(depth, 0, sup, nil)
	}
	width := e.b.prog.sup.Len()
	if e.b.vocab != nil {
		width = e.b.vocab.Len()
	}
	return newDiagState(depth, event.PackedWords(width), e.b.prog.sup, e.b.unpack)
}

// Diagnostics returns the recorded violation reports (nil when
// diagnostics are disabled or no violation occurred).
func (e *Engine) Diagnostics() []Diagnostic {
	if e.diag == nil {
		return nil
	}
	return e.diag.reports
}

// advance moves the ring cursor past the slot just written.
func (d *diagState) advance() {
	d.next = (d.next + 1) % d.depth
	if d.next == 0 {
		d.filled = true
	}
}

// observe records a map input before it is consumed.
func (d *diagState) observe(s event.State) {
	d.packed[d.next] = false
	d.states[d.next] = s.Clone()
	d.advance()
}

// observePacked records a packed input before it is consumed, copying
// its words into the slot's preallocated buffer. The slot is as wide as
// the symbol table the engine unpacks with, so words past it carry no
// symbol and are dropped.
func (d *diagState) observePacked(in event.Packed) {
	w := d.words[d.next*d.stride : (d.next+1)*d.stride]
	n := copy(w, in)
	clear(w[n:])
	d.packed[d.next] = true
	d.states[d.next] = event.State{}
	d.advance()
}

// populated reports whether slot i holds an observed input.
func (d *diagState) populated(i int) bool { return d.filled || i < d.next }

// slot materializes slot i as a State.
func (d *diagState) slot(i int) event.State {
	if d.packed[i] {
		return d.unpack(event.Packed(d.words[i*d.stride : (i+1)*d.stride]))
	}
	return d.states[i]
}

// last materializes the input observed most recently (the offending one
// when a violation is being recorded).
func (d *diagState) last() event.State {
	return d.slot((d.next - 1 + d.depth) % d.depth)
}

// recent returns the inputs before the one just observed, oldest first.
func (d *diagState) recent() []event.State {
	var out []event.State
	n := d.depth
	if !d.filled {
		n = d.next
	}
	// Exclude the most recent entry (the offending input itself).
	for i := n - 1; i >= 1; i-- {
		out = append(out, d.slot((d.next-1-i+2*d.depth)%d.depth))
	}
	return out
}

// push appends d to the bounded report ring, dropping the oldest report
// once maxDiagnostics are retained.
func (d *diagState) push(rep Diagnostic) {
	if len(d.reports) >= maxDiagnostics {
		copy(d.reports, d.reports[1:])
		d.reports[len(d.reports)-1] = rep
		return
	}
	d.reports = append(d.reports, rep)
}

// recordViolation captures a diagnostic if armed. The offending input
// is the ring's newest slot (every step observes before it finishes);
// maps are built here, not per tick. Guard provenance comes from the
// compiled program's cached renderings on program-bound engines and from
// the guard AST otherwise — identical strings by construction.
func (e *Engine) recordViolation(res StepResult) {
	if e.diag == nil {
		return
	}
	input := e.diag.last()
	rep := Diagnostic{
		Monitor:    e.m.Name,
		Tick:       res.Tick,
		FromState:  res.From,
		GridLine:   gridLine(e.m, res.From),
		Guards:     e.guardStrings(res.From),
		Input:      input,
		Recent:     e.diag.recent(),
		Scoreboard: e.sb.Live(),
	}
	if res.TransIndex >= 0 {
		rep.Guard = e.guardString(res.From, res.TransIndex)
	}
	if e.diag.sup != nil {
		rep.Valuation = uint64(e.diag.sup.Valuation(input))
	}
	e.diag.push(rep)
}

// guardString renders one guard of state s: the program's cached
// rendering on the program tier, the guard AST otherwise.
func (e *Engine) guardString(s, idx int) string {
	if e.b != nil {
		return e.b.prog.GuardString(s, idx)
	}
	return e.m.Trans[s][idx].Guard.String()
}

// guardStrings renders every candidate guard of state s in transition
// order.
func (e *Engine) guardStrings(s int) []string {
	if s < 0 || s >= len(e.m.Trans) || len(e.m.Trans[s]) == 0 {
		return nil
	}
	if e.b != nil {
		return append([]string(nil), e.b.prog.guardText[s]...)
	}
	out := make([]string, len(e.m.Trans[s]))
	for i := range e.m.Trans[s] {
		out[i] = e.m.Trans[s][i].Guard.String()
	}
	return out
}

// gridLine maps an automaton state to the chart grid line it represents:
// linear SCESC monitors synthesize one state per grid line, so the state
// index is the grid line; composed monitors have no such mapping.
func gridLine(m *Monitor, state int) int {
	if m.Linear {
		return state
	}
	return -1
}
