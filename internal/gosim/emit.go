package gosim

import (
	"fmt"
	"go/format"
	"sort"
	"strconv"
	"strings"
)

// EmitSource renders the Program into a self-contained single-file Go
// main package: the runner. Architectural state becomes package-level
// variables (s_<name> scalars, m_<name> memories), every distinct
// instruction word becomes one function per activation target with the
// coding tree resolved into a switch, and the ACTIVATION schedule becomes
// a static step() function. The runner stays resident, serving one run
// per request line; it self-times its step loop and reports everything
// over the NDJSON protocol (see protocol.go).
//
// The file header carries the address table: the paper's one-function-
// per-address scheme, collapsed so addresses holding the same word share
// one function (the functions are keyed by word, the table by address).
func (p *Program) EmitSource() ([]byte, error) {
	g := &gen{p: p}
	g.file()
	src, err := format.Source([]byte(g.b.String()))
	if err != nil {
		return nil, fmt.Errorf("gosim: emitted source does not format (emitter bug): %w", err)
	}
	return src, nil
}

type gen struct {
	p *Program
	b strings.Builder
}

func (g *gen) pf(format string, args ...interface{}) {
	fmt.Fprintf(&g.b, format, args...)
	g.b.WriteByte('\n')
}

// raw writes a literal block (no format expansion).
func (g *gen) raw(s string) {
	g.b.WriteString(s)
	g.b.WriteByte('\n')
}

// sortedHandlers returns the handler set in ascending word order, for
// deterministic output.
func (g *gen) sortedHandlers() []*wordHandler {
	hs := make([]*wordHandler, 0, len(g.p.handlers))
	for _, h := range g.p.handlers {
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].word < hs[j].word })
	return hs
}

// hasRing reports whether any activation target is staged past 0 (the
// ring machinery is emitted only then).
func (g *gen) hasRing() bool {
	for _, h := range g.p.handlers {
		for _, t := range h.targets {
			if t.stage > 0 {
				return true
			}
		}
	}
	return false
}

func (g *gen) file() {
	p := g.p
	g.pf("// Code generated by golisa's gosim compiler. DO NOT EDIT.")
	g.pf("//")
	g.pf("// model %s (hash %s), program hash %s", p.Model.Name, p.ModelHash, p.ProgHash)
	g.pf("// %d words at %#x, pipeline depth %d", len(p.Words), p.Origin, p.depth)
	g.pf("//")
	g.pf("// address table (address: word -> handler):")
	for i, w := range p.Words {
		key := w & maskN(p.dispW)
		name := "(data)"
		if h, ok := p.handlers[key]; ok {
			switch {
			case h.errMsg != "":
				name = "(does not decode)"
			case h.name != "":
				name = fmt.Sprintf("w_%x (%s)", h.word, h.name)
			default:
				name = fmt.Sprintf("w_%x", h.word)
			}
		}
		g.pf("//   %#06x: %#x -> %s", p.Origin+uint64(i), w, name)
	}
	g.pf("package main")
	g.pf("")
	g.pf("import (")
	g.pf("\t\"bufio\"")
	g.pf("\t\"encoding/json\"")
	g.pf("\t\"fmt\"")
	g.pf("\t\"os\"")
	g.pf("\t\"strconv\"")
	g.pf("\t\"time\"")
	g.pf(")")
	g.pf("")
	g.pf("const (")
	g.pf("\trunnerVersion = %d", runnerVersion)
	g.pf("\tmodelHash = %q", p.ModelHash)
	g.pf("\tprogHash  = %q", p.ProgHash)
	g.pf("\torigin    = %#x", p.Origin)
	if g.hasRing() {
		g.pf("\tdepth = %d", p.depth)
	}
	g.pf(")")
	g.state()
	g.runtimeHelpers()
	g.memHelpers()
	g.stateDump()
	g.zeroFn()
	g.resetFn()
	g.handlerFns()
	g.dispatchFn()
	g.stepFn()
	g.mainFn()
}

// state emits the flattened architectural state and the schedule queues.
func (g *gen) state() {
	p := g.p
	g.pf("")
	g.pf("// architectural state, slot-flattened")
	g.pf("var (")
	for _, r := range p.scalars {
		if r != nil {
			g.pf("\ts_%s uint64 // %d bits", r.Name, r.Width)
		}
	}
	for _, r := range p.arrays {
		if r != nil {
			g.pf("\tm_%s [%d]uint64 // %d bits each", r.Name, r.Total(), r.Width)
		}
	}
	for _, r := range p.latches {
		g.pf("\tpv_%s uint64", r.Name)
		g.pf("\tps_%s bool", r.Name)
	}
	if p.nLoc > 0 {
		g.pf("\tloc [%d]uint64", p.nLoc)
	}
	g.pf(")")
	g.pf("")
	g.pf("var image = [...]uint64{")
	for i := 0; i < len(p.Words); i += 8 {
		end := i + 8
		if end > len(p.Words) {
			end = len(p.Words)
		}
		parts := make([]string, 0, 8)
		for _, w := range p.Words[i:end] {
			parts = append(parts, fmt.Sprintf("%#x", w))
		}
		g.pf("\t%s,", strings.Join(parts, ", "))
	}
	g.pf("}")
	g.pf("")
	g.pf("var (")
	g.pf("\tnow    []func()")
	g.pf("\tcycle  uint64")
	g.pf("\trunErr string")
	g.pf("\tprints []string")
	g.pf("\tout    *bufio.Writer")
	g.pf("\tenc    *json.Encoder")
	g.pf("\twb     []byte")
	g.pf(")")
	if g.hasRing() {
		g.pf("")
		g.pf("type ent struct {")
		g.pf("\tst int")
		g.pf("\tfn func()")
		g.pf("}")
		g.pf("")
		g.pf("var ring [depth][]ent")
		g.pf("")
		g.pf("func push(st int, fn func()) {")
		g.pf("\ts := (cycle + uint64(st)) %% depth")
		g.pf("\tring[s] = append(ring[s], ent{st, fn})")
		g.pf("}")
	}
}

// runtimeHelpers emits the fixed semantic kernel every runner shares; the
// bodies mirror interp.go's closures operation for operation.
func (g *gen) runtimeHelpers() {
	g.pf("")
	g.raw(`// semantic kernel: bit-accurate helpers mirroring internal/bitvec
func mask(w uint) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

func sx(v uint64, w uint) uint64 {
	if w >= 64 {
		return v
	}
	sh := 64 - w
	return uint64(int64(v<<sh) >> sh)
}

func b2i(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func shl(a, b uint64, w uint) uint64 {
	n := uint(b & 63)
	if n >= w {
		return 0
	}
	return (a << n) & mask(w)
}

func shru(a, b uint64, w uint) uint64 {
	n := uint(b & 63)
	if n >= w {
		return 0
	}
	return a >> n
}

func shrs(a, b uint64, w uint) uint64 {
	n := uint(b & 63)
	if n >= w {
		n = w - 1
	}
	return uint64(sx(a, w)>>n) & mask(w)
}

func sdiv(a, b uint64, w uint) uint64 {
	ai, bi := int64(sx(a, w)), int64(sx(b, w))
	switch {
	case bi == 0:
		return mask(w)
	case ai == -1<<63 && bi == -1:
		return uint64(ai) & mask(w)
	}
	return uint64(ai/bi) & mask(w)
}

func udiv(a, b uint64, w uint) uint64 {
	if b == 0 {
		return mask(w)
	}
	return (a / b) & mask(w)
}

func smod(a, b uint64, w uint) uint64 {
	ai, bi := int64(sx(a, w)), int64(sx(b, w))
	if bi == 0 || (ai == -1<<63 && bi == -1) {
		return 0
	}
	return uint64(ai%bi) & mask(w)
}

func umod(a, b uint64, w uint) uint64 {
	if b == 0 {
		return 0
	}
	return (a % b) & mask(w)
}

func tern(c bool, a, b uint64) uint64 {
	if c {
		return a
	}
	return b
}

func absv(v uint64, w uint) uint64 {
	if int64(sx(v, w)) < 0 {
		return (-v) & mask(w)
	}
	return v
}

func smin(a, b uint64, w uint) uint64 {
	if int64(sx(a, w)) <= int64(sx(b, w)) {
		return a
	}
	return b
}

func smax(a, b uint64, w uint) uint64 {
	if int64(sx(a, w)) <= int64(sx(b, w)) {
		return b
	}
	return a
}

func umin(a, b uint64) uint64 {
	if a <= b {
		return a
	}
	return b
}

func umax(a, b uint64) uint64 {
	if a <= b {
		return b
	}
	return a
}

func ssat(v uint64, w, to uint) uint64 {
	hi := int64(mask(to - 1))
	lo := -hi - 1
	i := int64(sx(v, w))
	if i > hi {
		i = hi
	} else if i < lo {
		i = lo
	}
	return uint64(i) & mask(w)
}

func sext(v uint64, n uint) uint64 { return sx(v&mask(n), n) }

func sadds(a uint64, aw uint, b uint64, bw uint, w uint, sub bool) uint64 {
	ai, bi := int64(sx(a, aw)), int64(sx(b, bw))
	s := ai + bi
	if sub {
		s = ai - bi
	}
	if w < 64 {
		hi := int64(mask(w - 1))
		lo := -hi - 1
		if s > hi {
			s = hi
		} else if s < lo {
			s = lo
		}
	}
	return uint64(s) & mask(w)
}

func fmtS(v uint64, w uint) string { return strconv.FormatInt(int64(sx(v, w)), 10) }

func fmtU(v uint64) string { return strconv.FormatUint(v, 10) }

func fail(msg string) {
	if runErr == "" {
		runErr = fmt.Sprintf("cycle %d: %s", cycle, msg)
	}
}

func emitP(s string) { prints = append(prints, s) }`)
}

// memHelpers emits the per-memory bounds-checked accessors (out-of-range
// reads yield 0, writes drop, like model.State).
func (g *gen) memHelpers() {
	for _, r := range g.p.arrays {
		if r == nil {
			continue
		}
		g.pf("")
		g.pf("func rd_%s(a uint64) uint64 {", r.Name)
		if r.Base != 0 {
			g.pf("\ta -= %#x", r.Base)
		}
		g.pf("\tif a < %d {", r.Size)
		g.pf("\t\treturn m_%s[a]", r.Name)
		g.pf("\t}")
		g.pf("\treturn 0")
		g.pf("}")
		g.pf("")
		g.pf("func wr_%s(a, v uint64) {", r.Name)
		if r.Base != 0 {
			g.pf("\ta -= %#x", r.Base)
		}
		g.pf("\tif a < %d {", r.Size)
		g.pf("\t\tm_%s[a] = v & %#x", r.Name, maskN(r.Width))
		g.pf("\t}")
		g.pf("}")
	}
}

// stateDump emits the slot-indexed state snapshot the protocol reports,
// zero-suppressed (see protocol.go).
func (g *gen) stateDump() {
	p := g.p
	g.pf("")
	g.raw(`// appendZ appends a as a zero-suppressed array: its length, then runs
// of nonzero words, each as offset, count and the words.
func appendZ(b []byte, a []uint64) []byte {
	b = append(b, '[')
	b = strconv.AppendUint(b, uint64(len(a)), 10)
	for i := 0; i < len(a); {
		if a[i] == 0 {
			i++
			continue
		}
		j := i + 1
		for j < len(a) && a[j] != 0 {
			j++
		}
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(i), 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(j-i), 10)
		for ; i < j; i++ {
			b = append(b, ',')
			b = strconv.AppendUint(b, a[i], 10)
		}
	}
	return append(b, ']')
}`)
	g.pf("")
	g.pf("func appendState(b []byte) []byte {")
	parts := make([]string, len(p.scalars))
	for i, r := range p.scalars {
		if r == nil {
			parts[i] = "0"
		} else {
			parts[i] = "s_" + r.Name
		}
	}
	g.pf("\tb = append(b, `\"sc\":`...)")
	g.pf("\tb = appendZ(b, []uint64{%s})", strings.Join(parts, ", "))
	g.pf("\tb = append(b, `,\"arr\":[`...)")
	for i, r := range p.arrays {
		if i > 0 {
			g.pf("\tb = append(b, ',')")
		}
		if r == nil {
			g.pf("\tb = appendZ(b, nil)")
		} else {
			g.pf("\tb = appendZ(b, m_%s[:])", r.Name)
		}
	}
	g.pf("\treturn append(b, ']')")
	g.pf("}")
	if len(p.latches) > 0 {
		g.pf("")
		g.pf("func commit() {")
		for _, r := range p.latches {
			g.pf("\tif ps_%s {", r.Name)
			g.pf("\t\ts_%s = pv_%s", r.Name, r.Name)
			g.pf("\t\tps_%s = false", r.Name)
			g.pf("\t}")
		}
		g.pf("}")
	}
}

func (g *gen) commitCall() string {
	if len(g.p.latches) > 0 {
		return "commit()"
	}
	return ""
}

// zeroFn emits the per-run clear of every piece of package-level state,
// so a resident runner starts each run exactly as a fresh process would.
func (g *gen) zeroFn() {
	p := g.p
	g.pf("")
	g.pf("func zeroState() {")
	for _, r := range p.scalars {
		if r != nil {
			g.pf("\ts_%s = 0", r.Name)
		}
	}
	for _, r := range p.arrays {
		if r != nil {
			g.pf("\tm_%s = [%d]uint64{}", r.Name, r.Total())
		}
	}
	for _, r := range p.latches {
		g.pf("\tpv_%s, ps_%s = 0, false", r.Name, r.Name)
	}
	if p.nLoc > 0 {
		g.pf("\tloc = [%d]uint64{}", p.nLoc)
	}
	g.pf("\tnow = now[:0]")
	if g.hasRing() {
		g.pf("\tfor i := range ring {")
		g.pf("\t\tring[i] = ring[i][:0]")
		g.pf("\t}")
	}
	g.pf("\tcycle = 0")
	g.pf("\trunErr = \"\"")
	g.pf("\tprints = prints[:0]")
	g.pf("}")
}

// resetFn emits the reset behavior plus the program-image load.
func (g *gen) resetFn() {
	p := g.p
	g.pf("")
	g.pf("func resetSim() {")
	g.stmts(p.resetB, 1)
	if c := g.commitCall(); c != "" {
		g.pf("\t%s", c)
	}
	if p.progMem != nil {
		g.pf("\tfor i, w := range image {")
		g.pf("\t\twr_%s(origin+uint64(i), w)", p.progMem.Name)
		g.pf("\t}")
	}
	g.pf("}")
}

// handlerFns emits one function per activation target: the main items
// and every decoded word's behaviors.
func (g *gen) handlerFns() {
	for i, it := range g.p.items {
		if len(it.body) == 0 {
			continue
		}
		g.pf("")
		g.pf("func it_%d() { // main -> %s", i, it.opName)
		g.stmts(it.body, 1)
		g.pf("}")
	}
	for _, h := range g.sortedHandlers() {
		for i, t := range h.targets {
			if len(t.body) == 0 {
				continue
			}
			g.pf("")
			stage := "this cycle"
			if t.stage > 0 {
				stage = fmt.Sprintf("stage %d", t.stage)
			}
			g.pf("func w_%x_%d() { // %s, %s", h.word, i, t.opName, stage)
			g.stmts(t.body, 1)
			g.pf("}")
		}
	}
}

// dispatchFn emits the coding tree resolved into a switch over the
// pre-decoded words.
func (g *gen) dispatchFn() {
	p := g.p
	if p.rootRes == nil {
		return
	}
	g.pf("")
	g.pf("func dispatch() {")
	g.pf("\tk := s_%s & %#x", p.rootRes.Name, maskN(p.dispW))
	g.pf("\tswitch k {")
	for _, h := range g.sortedHandlers() {
		g.pf("\tcase %#x:", h.word)
		if h.errMsg != "" {
			g.pf("\t\tfail(%q)", h.errMsg)
			continue
		}
		if len(h.targets) == 0 {
			g.pf("\t\t// %s: no activation", h.name)
			continue
		}
		for i, t := range h.targets {
			if len(t.body) == 0 {
				continue
			}
			if t.stage > 0 {
				g.pf("\t\tpush(%d, w_%x_%d)", t.stage, h.word, i)
			} else {
				g.pf("\t\tnow = append(now, w_%x_%d)", h.word, i)
			}
		}
	}
	g.pf("\tdefault:")
	g.pf("\t\tfail(fmt.Sprintf(\"dispatch of unknown word %%#x\", k))")
	g.pf("\t}")
	g.pf("}")
}

// stepFn emits one control step: main behavior, activation items, the
// this-cycle queue, the matured ring slot (stage-ascending, insertion
// order within a stage), and the latch commit.
func (g *gen) stepFn() {
	p := g.p
	g.pf("")
	g.pf("func step() {")
	g.stmts(p.mainB, 1)
	for i, it := range p.items {
		if len(it.body) == 0 {
			continue
		}
		if it.cond != nil {
			g.pf("\tif (%s) != 0 {", g.expr(it.cond))
			g.pf("\t\tnow = append(now, it_%d)", i)
			g.pf("\t}")
		} else {
			g.pf("\tnow = append(now, it_%d)", i)
		}
	}
	g.pf("\tfor i := 0; i < len(now); i++ {")
	g.pf("\t\tnow[i]()")
	g.pf("\t}")
	g.pf("\tnow = now[:0]")
	if g.hasRing() {
		g.pf("\tcur := cycle %% depth")
		g.pf("\tslot := ring[cur]")
		g.pf("\tfor st := 1; st < depth; st++ {")
		g.pf("\t\tfor _, en := range slot {")
		g.pf("\t\t\tif en.st == st {")
		g.pf("\t\t\t\ten.fn()")
		g.pf("\t\t\t}")
		g.pf("\t\t}")
		g.pf("\t}")
		g.pf("\tring[cur] = slot[:0]")
	}
	if c := g.commitCall(); c != "" {
		g.pf("\t%s", c)
	}
	g.pf("\tcycle++")
	g.pf("}")
}

// mainFn emits the runner's main loop: the header, then the request loop —
// clear, reset, run the self-timed step loop, report — until stdin closes.
func (g *gen) mainFn() {
	p := g.p
	g.pf("")
	g.raw(`type hline struct {
	T     string ` + "`json:\"t\"`" + `
	V     int    ` + "`json:\"v\"`" + `
	Model string ` + "`json:\"model\"`" + `
	Prog  string ` + "`json:\"prog\"`" + `
}

type request struct {
	Max   uint64 ` + "`json:\"max\"`" + `
	Trace bool   ` + "`json:\"trace\"`" + `
}

type pline struct {
	T string ` + "`json:\"t\"`" + `
	S string ` + "`json:\"s\"`" + `
}

type eline struct {
	T     string ` + "`json:\"t\"`" + `
	Msg   string ` + "`json:\"msg\"`" + `
	Steps uint64 ` + "`json:\"steps\"`" + `
}

func emitCycle() {
	wb = append(wb[:0], ` + "`" + `{"t":"c","n":` + "`" + `...)
	wb = strconv.AppendUint(wb, cycle, 10)
	wb = append(wb, ',')
	wb = appendState(wb)
	wb = append(wb, "}\n"...)
	_, _ = out.Write(wb)
}

func main() {
	in := bufio.NewReader(os.Stdin)
	out = bufio.NewWriterSize(os.Stdout, 64<<10)
	enc = json.NewEncoder(out)
	_ = enc.Encode(hline{"h", runnerVersion, modelHash, progHash})
	for out.Flush() == nil {
		line, err := in.ReadBytes('\n')
		if err != nil {
			return
		}
		var rq request
		if err := json.Unmarshal(line, &rq); err != nil {
			_ = enc.Encode(eline{"e", "bad request: " + err.Error(), 0})
			continue
		}
		serve(rq.Max, rq.Trace)
	}
}`)
	g.pf("")
	g.pf("func serve(max uint64, tr bool) {")
	g.pf("\tzeroState()")
	g.pf("\tresetSim()")
	g.pf("\tvar steps uint64")
	g.pf("\tstart := time.Now()")
	g.pf("\tfor steps < max {")
	if p.halt != nil {
		g.pf("\t\tif s_%s != 0 {", p.halt.Name)
		g.pf("\t\t\tbreak")
		g.pf("\t\t}")
	}
	g.pf("\t\tstep()")
	g.pf("\t\tif tr {")
	g.pf("\t\t\temitCycle()")
	g.pf("\t\t}")
	g.pf("\t\tif runErr != \"\" {")
	g.pf("\t\t\tbreak")
	g.pf("\t\t}")
	g.pf("\t\tsteps++")
	g.pf("\t}")
	g.pf("\twall := time.Since(start).Nanoseconds()")
	g.pf("\tfor _, s := range prints {")
	g.pf("\t\t_ = enc.Encode(pline{\"p\", s})")
	g.pf("\t}")
	g.pf("\tif runErr != \"\" {")
	g.pf("\t\t_ = enc.Encode(eline{\"e\", runErr, steps})")
	g.pf("\t\treturn")
	g.pf("\t}")
	halted := "false"
	if p.halt != nil {
		halted = fmt.Sprintf("s_%s != 0", p.halt.Name)
	}
	g.pf("\twb = append(wb[:0], `{\"t\":\"r\",\"steps\":`...)")
	g.pf("\twb = strconv.AppendUint(wb, steps, 10)")
	g.pf("\twb = append(wb, `,\"halted\":`...)")
	g.pf("\twb = strconv.AppendBool(wb, %s)", halted)
	g.pf("\twb = append(wb, `,\"wall_ns\":`...)")
	g.pf("\twb = strconv.AppendInt(wb, wall, 10)")
	g.pf("\twb = append(wb, ',')")
	g.pf("\twb = appendState(wb)")
	g.pf("\twb = append(wb, `,\"penalty\":{}}`...)")
	g.pf("\twb = append(wb, '\\n')")
	g.pf("\t_, _ = out.Write(wb)")
	g.pf("}")
}

// ---- statement emission --------------------------------------------------

func (g *gen) stmts(list []*stmt, depth int) {
	ind := strings.Repeat("\t", depth)
	for _, s := range list {
		switch s.kind {
		case sAssign:
			g.pf("%s%s", ind, g.assign(s.lhs, s.rhs))
		case sIf:
			g.pf("%sif (%s) != 0 {", ind, g.expr(s.cond))
			g.stmts(s.then, depth+1)
			if len(s.els) > 0 {
				g.pf("%s} else {", ind)
				g.stmts(s.els, depth+1)
			}
			g.pf("%s}", ind)
		case sPrint:
			g.pf("%semitP(%s)", ind, g.printArg(s.parts))
		case sDispatch:
			g.pf("%sdispatch()", ind)
		}
	}
}

func (g *gen) printArg(parts []printPart) string {
	if len(parts) == 0 {
		return `""`
	}
	segs := make([]string, len(parts))
	for i, pp := range parts {
		if pp.isStr {
			segs[i] = strconv.Quote(pp.str)
		} else if pp.signed {
			segs[i] = fmt.Sprintf("fmtS(%s, %d)", g.expr(pp.x), pp.x.w)
		} else {
			segs[i] = fmt.Sprintf("fmtU(%s)", g.expr(pp.x))
		}
	}
	return strings.Join(segs, ` + " " + `)
}

func (g *gen) assign(lhs *lval, rhs *expr) string {
	rs := g.expr(rhs)
	switch lhs.kind {
	case lLocal:
		lw := lhs.local.w
		if lhs.local.signed {
			return fmt.Sprintf("loc[%d] = sx(%s, %d) & %#x", lhs.local.idx, rs, lhs.rhsW, maskN(lw))
		}
		return fmt.Sprintf("loc[%d] = (%s) & %#x", lhs.local.idx, rs, maskN(lw))
	case lScalar:
		r := lhs.res
		if r.Latch {
			return fmt.Sprintf("pv_%s, ps_%s = (%s)&%#x, true", r.Name, r.Name, rs, maskN(r.Width))
		}
		return fmt.Sprintf("s_%s = (%s) & %#x", r.Name, rs, maskN(r.Width))
	case lSlice:
		r := lhs.res
		mm := maskN(lhs.hi-lhs.lo+1) << uint(lhs.lo)
		merged := fmt.Sprintf("((s_%s &^ %#x) | (((%s) << %d) & %#x)) & %#x",
			r.Name, mm, rs, lhs.lo, mm, maskN(r.Width))
		if r.Latch {
			return fmt.Sprintf("pv_%s, ps_%s = %s, true", r.Name, r.Name, merged)
		}
		return fmt.Sprintf("s_%s = %s", r.Name, merged)
	case lElem:
		return fmt.Sprintf("wr_%s(%s, %s)", lhs.res.Name, g.expr(lhs.idx), rs)
	}
	panic("gosim: unknown lvalue kind")
}

// ---- expression emission -------------------------------------------------

// widen emits the arithmetic-widening conversion to the common width
// (sign-extension for narrower signed operands, identity otherwise).
func (g *gen) widen(c *expr, s string, to int) string {
	if c.signed && c.w < to {
		return fmt.Sprintf("(sx(%s, %d) & %#x)", s, c.w, maskN(to))
	}
	return s
}

// cmpInt emits the operand as the int64 the signed compare sees: signed
// operands sign-extend from their own width, unsigned ones from the
// common width.
func (g *gen) cmpInt(c *expr, s string, w int) string {
	if c.signed {
		return fmt.Sprintf("int64(sx(%s, %d))", s, c.w)
	}
	return fmt.Sprintf("int64(sx(%s, %d))", s, w)
}

func (g *gen) expr(e *expr) string {
	switch e.kind {
	case eConst:
		return fmt.Sprintf("%#x", e.k)
	case eLocal:
		return fmt.Sprintf("loc[%d]", e.local.idx)
	case eScalar:
		return "s_" + e.res.Name
	case eElem:
		return fmt.Sprintf("rd_%s(%s)", e.res.Name, g.expr(e.idx))
	case eSlice:
		return fmt.Sprintf("((%s >> %d) & %#x)", g.expr(e.a), e.n, maskN(e.w))
	case eUn:
		a := g.expr(e.a)
		switch e.op {
		case "-":
			return fmt.Sprintf("((-(%s)) & %#x)", a, maskN(e.w))
		case "!":
			return fmt.Sprintf("b2i((%s) == 0)", a)
		case "~":
			return fmt.Sprintf("((^(%s)) & %#x)", a, maskN(e.w))
		}
	case eBin:
		return g.bin(e)
	case eCond:
		return fmt.Sprintf("tern((%s) != 0, %s, %s)", g.expr(e.a), g.expr(e.b), g.expr(e.c))
	case eAbs:
		return fmt.Sprintf("absv(%s, %d)", g.expr(e.a), e.a.w)
	case eMinMax:
		fn := map[string]string{"min": "umin", "max": "umax"}[e.op]
		if e.a.signed {
			return fmt.Sprintf("s%s(%s, %s, %d)", e.op, g.expr(e.a), g.expr(e.b), e.a.w)
		}
		return fmt.Sprintf("%s(%s, %s)", fn, g.expr(e.a), g.expr(e.b))
	case eSat:
		if e.n >= 64 {
			return g.expr(e.a)
		}
		return fmt.Sprintf("ssat(%s, %d, %d)", g.expr(e.a), e.a.w, e.n)
	case eSext:
		return fmt.Sprintf("sext(%s, %d)", g.expr(e.a), e.n)
	case eZext:
		return fmt.Sprintf("((%s) & %#x)", g.expr(e.a), maskN(e.n))
	case eAddSat:
		return fmt.Sprintf("sadds(%s, %d, %s, %d, %d, %v)",
			g.expr(e.a), e.a.w, g.expr(e.b), e.b.w, e.w, e.op == "-")
	}
	panic("gosim: unknown expression kind")
}

func (g *gen) bin(e *expr) string {
	l, r := e.a, e.b
	w := l.w
	if r.w > w {
		w = r.w
	}
	ls, rs := g.expr(l), g.expr(r)
	signed := l.signed || r.signed
	switch e.op {
	case "+", "-", "*":
		return fmt.Sprintf("((%s %s %s) & %#x)", g.widen(l, ls, w), e.op, g.widen(r, rs, w), maskN(w))
	case "&", "|", "^":
		return fmt.Sprintf("(%s %s %s)", g.widen(l, ls, w), e.op, g.widen(r, rs, w))
	case "==", "!=":
		return fmt.Sprintf("b2i(%s %s %s)", g.widen(l, ls, w), e.op, g.widen(r, rs, w))
	case "/":
		if signed {
			return fmt.Sprintf("sdiv(%s, %s, %d)", g.widen(l, ls, w), g.widen(r, rs, w), w)
		}
		return fmt.Sprintf("udiv(%s, %s, %d)", g.widen(l, ls, w), g.widen(r, rs, w), w)
	case "%":
		if signed {
			return fmt.Sprintf("smod(%s, %s, %d)", g.widen(l, ls, w), g.widen(r, rs, w), w)
		}
		return fmt.Sprintf("umod(%s, %s, %d)", g.widen(l, ls, w), g.widen(r, rs, w), w)
	case "<", "<=", ">", ">=":
		if signed {
			return fmt.Sprintf("b2i(%s %s %s)", g.cmpInt(l, ls, w), e.op, g.cmpInt(r, rs, w))
		}
		// Unsigned compares are payload compares at the operands' own
		// widths (no widening).
		return fmt.Sprintf("b2i((%s) %s (%s))", ls, e.op, rs)
	case "<<":
		return fmt.Sprintf("shl(%s, %s, %d)", ls, rs, l.w)
	case ">>":
		if l.signed {
			return fmt.Sprintf("shrs(%s, %s, %d)", ls, rs, l.w)
		}
		return fmt.Sprintf("shru(%s, %s, %d)", ls, rs, l.w)
	case "&&":
		return fmt.Sprintf("b2i((%s) != 0 && (%s) != 0)", ls, rs)
	case "||":
		return fmt.Sprintf("b2i((%s) != 0 || (%s) != 0)", ls, rs)
	}
	panic("gosim: unknown binary operator " + e.op)
}
