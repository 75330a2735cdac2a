package cover_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"golisa/internal/core"
	"golisa/internal/cover"
	"golisa/internal/sim"
	"golisa/internal/trace"
)

func loadModel(t testing.TB, name string) *core.Machine {
	t.Helper()
	m, err := core.LoadBuiltin(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func itemNames(items []cover.Item) []string {
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = it.Name
	}
	return names
}

// TestMapDeterministic: the enumeration is a pure function of the model —
// two maps agree item-for-item and share the fingerprint snapshots are
// keyed by.
func TestMapDeterministic(t *testing.T) {
	mc := loadModel(t, "simple16")
	a, b := cover.NewMap(mc.Model), cover.NewMap(mc.Model)
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints differ: %#x vs %#x", a.Fingerprint, b.Fingerprint)
	}
	for d := 0; d < cover.NumDomains; d++ {
		an, bn := itemNames(a.Items[d]), itemNames(b.Items[d])
		if strings.Join(an, ",") != strings.Join(bn, ",") {
			t.Fatalf("domain %s enumerations differ:\n%v\n%v", cover.DomainNames[d], an, bn)
		}
		if len(an) == 0 {
			t.Fatalf("domain %s is empty", cover.DomainNames[d])
		}
	}
	// Index is the inverse of the enumeration.
	for d := 0; d < cover.NumDomains; d++ {
		for i, it := range a.Items[d] {
			if got := a.Index(d, it.Name); got != i {
				t.Fatalf("Index(%s, %s) = %d, want %d", cover.DomainNames[d], it.Name, got, i)
			}
		}
		if a.Index(d, "no-such-item") != -1 {
			t.Fatalf("Index on unknown item must be -1")
		}
	}
}

func TestMapFingerprintSeparatesModels(t *testing.T) {
	fps := map[uint64]string{}
	for _, name := range []string{"simple16", "simd16", "c62x"} {
		cm := cover.NewMap(loadModel(t, name).Model)
		if prev, dup := fps[cm.Fingerprint]; dup {
			t.Fatalf("%s and %s share fingerprint %#x", prev, name, cm.Fingerprint)
		}
		fps[cm.Fingerprint] = name
	}
}

// TestMapExcludesUnreachable: the statically dead simple16 leaves (jmp
// shadowed by b, clrmac by clracc) are out of every denominator but
// reported in Excluded.
func TestMapExcludesUnreachable(t *testing.T) {
	cm := cover.NewMap(loadModel(t, "simple16").Model)
	if len(cm.Excluded) != 2 {
		t.Fatalf("Excluded = %+v, want jmp and clrmac", cm.Excluded)
	}
	dead := map[string]bool{}
	for _, u := range cm.Excluded {
		dead[u.Op] = true
	}
	if !dead["jmp"] || !dead["clrmac"] {
		t.Fatalf("Excluded = %+v, want jmp and clrmac", cm.Excluded)
	}
	for _, d := range []int{cover.DomainLeaves, cover.DomainOps} {
		for _, it := range cm.Items[d] {
			if dead[it.Name] {
				t.Errorf("dead leaf %s enumerated in domain %s", it.Name, cover.DomainNames[d])
			}
		}
	}
	for _, it := range cm.Items[cover.DomainLeaves] {
		if it.Pos == "" {
			t.Errorf("leaf %s: no source position", it.Name)
		}
	}
}

func TestBitsetJSONRoundTrip(t *testing.T) {
	b := cover.NewBitset(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		b.Set(i)
	}
	b.Set(-1)  // ignored
	b.Set(500) // out of range, ignored
	if b.Count() != 8 {
		t.Fatalf("Count = %d, want 8", b.Count())
	}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	var back cover.Bitset
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !b.Equal(back) {
		t.Fatalf("roundtrip mismatch: %s vs %v", data, back)
	}
	if err := json.Unmarshal([]byte(`"abc"`), &back); err == nil {
		t.Fatal("short hex accepted")
	}
	if err := json.Unmarshal([]byte(`"zzzzzzzzzzzzzzzz"`), &back); err == nil {
		t.Fatal("non-hex accepted")
	}
}

// driveCollector pushes one concrete event per domain picked from the
// map's own enumeration, so the test holds for any model revision.
func driveCollector(t *testing.T, cm *cover.Map, col *cover.Collector, pick int) {
	t.Helper()
	ops := cm.Items[cover.DomainOps]
	col.OnExec(ops[pick%len(ops)].Name, 0, 0, 0)
	edges := cm.Items[cover.DomainEdges]
	src, dst, ok := strings.Cut(edges[pick%len(edges)].Name, "->")
	if !ok {
		t.Fatalf("edge item %q not src->dst", edges[pick%len(edges)].Name)
	}
	col.OnActivateEdge(src, dst, 0)
	col.OnStallInfo(trace.StallInfo{Cause: trace.CauseData})
	col.OnFlushInfo(trace.StallInfo{Cause: trace.CauseControl})
}

func TestSnapshotMergeIsUnion(t *testing.T) {
	cm := cover.NewMap(loadModel(t, "simple16").Model)
	a, b := cover.NewCollector(cm), cover.NewCollector(cm)
	driveCollector(t, cm, a, 0)
	driveCollector(t, cm, b, 1)
	sa, sb := a.Snapshot(), b.Snapshot()

	merged := sa.Clone()
	if err := merged.Merge(sb); err != nil {
		t.Fatal(err)
	}
	for i, d := range merged.Domains {
		union := sa.Domains[i].Bits.Clone()
		union.Or(sb.Domains[i].Bits)
		if !d.Bits.Equal(union) {
			t.Errorf("domain %s: merged bits are not the union", d.Name)
		}
		if d.Covered != d.Bits.Count() {
			t.Errorf("domain %s: Covered=%d, bits count %d", d.Name, d.Covered, d.Bits.Count())
		}
	}
	// Merge is idempotent.
	again := merged.Clone()
	if err := again.Merge(sa); err != nil {
		t.Fatal(err)
	}
	if !again.Equal(merged) {
		t.Error("re-merging a constituent changed the union")
	}
}

func TestSnapshotMergeRejectsOtherModel(t *testing.T) {
	s16 := cover.NewCollector(cover.NewMap(loadModel(t, "simple16").Model)).Snapshot()
	c62 := cover.NewCollector(cover.NewMap(loadModel(t, "c62x").Model)).Snapshot()
	if err := s16.Merge(c62); err == nil {
		t.Fatal("merging snapshots of different models succeeded")
	}
	cm := cover.NewMap(loadModel(t, "c62x").Model)
	if err := s16.Compatible(cm); err == nil {
		t.Fatal("Compatible accepted a snapshot of another model")
	}
}

func TestSnapshotWriteLoadRoundTrip(t *testing.T) {
	cm := cover.NewMap(loadModel(t, "simple16").Model)
	col := cover.NewCollector(cm)
	driveCollector(t, cm, col, 0)
	snap := col.Snapshot()

	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := cover.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(snap) {
		t.Fatal("snapshot did not survive Write/Load")
	}

	// A resolved report is a superset of the snapshot schema, so report
	// files merge and diff like snapshots do.
	rep, err := cm.Resolve(snap)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fromReport, err := cover.Load(&buf)
	if err != nil {
		t.Fatalf("report JSON does not load as a snapshot: %v", err)
	}
	if !fromReport.Equal(snap) {
		t.Fatal("report-derived snapshot differs from the original")
	}
}

func TestResolveReportsUncovered(t *testing.T) {
	cm := cover.NewMap(loadModel(t, "simple16").Model)
	col := cover.NewCollector(cm)
	rep, err := cm.Resolve(col.Snapshot()) // nothing covered
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Domains {
		if d.Covered != 0 || d.Share != 0 {
			t.Errorf("domain %s: covered=%d share=%v on an empty run", d.Name, d.Covered, d.Share)
		}
		if len(d.Uncovered) != d.Total {
			t.Errorf("domain %s: %d uncovered items, want all %d", d.Name, len(d.Uncovered), d.Total)
		}
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"leaves", "ops", "edges", "causes", "statically unreachable"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report misses %q:\n%s", want, text.String())
		}
	}
	var html bytes.Buffer
	if err := rep.WriteHTML(&html); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(html.String(), "<html") || !strings.Contains(html.String(), "miss") {
		t.Error("HTML heatmap lacks expected markup")
	}
}

func TestDiff(t *testing.T) {
	cm := cover.NewMap(loadModel(t, "simple16").Model)
	a, b := cover.NewCollector(cm), cover.NewCollector(cm)
	driveCollector(t, cm, a, 0)
	driveCollector(t, cm, b, 0)
	b.OnExec(cm.Items[cover.DomainOps][3].Name, 0, 0, 0)

	diff, err := cm.Diff(a.Snapshot(), b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != 1 || diff[0].Side != "b" || diff[0].Item.Name != cm.Items[cover.DomainOps][3].Name {
		t.Fatalf("Diff = %+v, want one b-only op", diff)
	}
	same, err := cm.Diff(a.Snapshot(), a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(same) != 0 {
		t.Fatalf("self-diff = %+v, want empty", same)
	}
	var buf bytes.Buffer
	if err := cover.WriteDiffText(&buf, same); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "identical") {
		t.Errorf("empty diff output: %q", buf.String())
	}
}

func TestCollectorOnAttachResets(t *testing.T) {
	cm := cover.NewMap(loadModel(t, "simple16").Model)
	col := cover.NewCollector(cm)
	driveCollector(t, cm, col, 0)
	if col.Snapshot().Domains[cover.DomainOps].Covered == 0 {
		t.Fatal("drive covered nothing")
	}
	col.OnAttach("simple16", nil)
	for _, d := range col.Snapshot().Domains {
		if d.Covered != 0 {
			t.Errorf("domain %s not cleared by OnAttach", d.Name)
		}
	}
}

const coverKernel = `
        LDI B1, 1
        LDI A8, 4
loop:   SUB A8, A8, B1
        BNZ A8, loop
        NOP
        NOP
        HALT
`

// TestLiveRunCoverage runs a real kernel in every mode with the collector
// attached the way lisa-sim does, and checks the decode seam and observer
// events mark the expected items.
func TestLiveRunCoverage(t *testing.T) {
	mc := loadModel(t, "simple16")
	for _, name := range []string{"interpretive", "compiled", "compiled+prebound"} {
		mode, _ := sim.ParseMode(name)
		t.Run(name, func(t *testing.T) {
			s, _, err := mc.AssembleAndLoad(coverKernel, mode)
			if err != nil {
				t.Fatal(err)
			}
			cm := cover.NewMap(mc.Model)
			col := cover.NewCollector(cm)
			s.OnDecoded = col.MarkDecoded
			s.SetObserver(col)
			if _, err := s.Run(10_000); err != nil {
				t.Fatal(err)
			}
			snap := col.Snapshot()
			for _, op := range []string{"ldi", "sub", "bnz", "nop", "halt_op"} {
				i := cm.Index(cover.DomainOps, op)
				if i < 0 {
					t.Fatalf("op %s not enumerated", op)
				}
				if !snap.Domains[cover.DomainOps].Bits.Get(i) {
					t.Errorf("op %s executed but not covered", op)
				}
				if li := cm.Index(cover.DomainLeaves, op); li >= 0 && !snap.Domains[cover.DomainLeaves].Bits.Get(li) {
					t.Errorf("leaf %s decoded but not covered", op)
				}
			}
			if i := cm.Index(cover.DomainOps, "mac"); i < 0 || snap.Domains[cover.DomainOps].Bits.Get(i) {
				t.Errorf("mac never ran but is marked covered")
			}
			if snap.Domains[cover.DomainEdges].Covered == 0 {
				t.Error("no activation edges covered")
			}
			// simple16 is fully interlocked-free (delayed branches, no
			// stalls): the causes domain must stay honest at 0/4.
			if c := snap.Domains[cover.DomainCauses]; c.Total != 4 || c.Covered != 0 {
				t.Errorf("causes = %d/%d, want 0/4 on a hazard-free machine", c.Covered, c.Total)
			}
		})
	}
}

// hazardMini is a 3-stage machine with a data-hazard stall (LD raises
// mem_wait, which gates fetch) and a control-hazard flush (BR redirects),
// so live runs can cover the causes domain.
const hazardMini = `
RESOURCE {
  PROGRAM_COUNTER int pc LATCH;
  CONTROL_REGISTER bit[16] ir;
  REGISTER int R[8];
  REGISTER bit halt;
  REGISTER int mem_wait;
  REGISTER bit redirect;
  PROGRAM_MEMORY bit[16] pmem[64];
  DATA_MEMORY int dmem[64];
  PIPELINE pipe = { FE; EX; WB };
}
OPERATION main {
  ACTIVATION {
    if (!halt && mem_wait == 0 && !redirect) { fetch },
    if (mem_wait > 0) { pipe.EX.stall(), pipe.FE.stall(), tick },
    if (redirect) { pipe.flush(), retarget },
    pipe.shift()
  }
}
OPERATION tick { BEHAVIOR { mem_wait = mem_wait - 1; } }
OPERATION retarget { BEHAVIOR { redirect = 0; } }
OPERATION fetch IN pipe.FE {
  BEHAVIOR { ir = pmem[pc]; pc = pc + 1; decode(); }
}
OPERATION decode {
  DECLARE { GROUP Insn = { nop; ld; br; halt_op }; }
  CODING { ir == Insn }
  ACTIVATION { Insn }
}
OPERATION nop { CODING { 0b0000 0bx[12] } SYNTAX { "NOP" } }
OPERATION ld IN pipe.EX {
  DECLARE { LABEL rd, addr; }
  CODING { 0b0010 rd:0bx[3] addr:0bx[9] }
  SYNTAX { "LD" rd:#u "," addr:#u }
  BEHAVIOR { R[rd] = dmem[addr]; mem_wait = 2; }
}
OPERATION br IN pipe.EX {
  DECLARE { LABEL target; }
  CODING { 0b0011 target:0bx[12] }
  SYNTAX { "BR" target:#u }
  BEHAVIOR { pc = target; redirect = 1; }
}
OPERATION halt_op IN pipe.EX {
  CODING { 0b1111 0bx[12] }
  SYNTAX { "HALT" }
  BEHAVIOR { halt = 1; }
}
`

const hazardMiniProg = `
    LD   2, 3
    NOP
    NOP
    BR   after
    NOP            ; wrong path, flushed
after:
    HALT
`

// TestLiveCauseCoverage drives a machine that actually stalls and
// flushes, and checks the causes domain records data and control while
// leaving the unexercised causes uncovered.
func TestLiveCauseCoverage(t *testing.T) {
	mach, err := core.LoadMachine("hazardmini", hazardMini)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := mach.AssembleAndLoad(hazardMiniProg, sim.Compiled)
	if err != nil {
		t.Fatal(err)
	}
	cm := cover.NewMap(mach.Model)
	col := cover.NewCollector(cm)
	s.OnDecoded = col.MarkDecoded
	s.SetObserver(col)
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if !s.Halted() {
		t.Fatal("program did not halt")
	}
	snap := col.Snapshot()
	causes := snap.Domains[cover.DomainCauses].Bits
	for cause, want := range map[string]bool{
		"data": true, "control": true, "structural": false, "explicit": false,
	} {
		i := cm.Index(cover.DomainCauses, cause)
		if i < 0 {
			t.Fatalf("cause %s not enumerated", cause)
		}
		if got := causes.Get(i); got != want {
			t.Errorf("cause %s covered=%v, want %v", cause, got, want)
		}
	}
	// The decode->ld edge fired; the wrong-path decode->br edge did too.
	for _, edge := range []string{"decode->ld", "decode->br", "decode->halt_op"} {
		i := cm.Index(cover.DomainEdges, edge)
		if i < 0 {
			t.Fatalf("edge %s not enumerated (have %v)", edge, itemNames(cm.Items[cover.DomainEdges]))
		}
		if !snap.Domains[cover.DomainEdges].Bits.Get(i) {
			t.Errorf("edge %s not covered", edge)
		}
	}
}
