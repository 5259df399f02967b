package cluster

import (
	"strings"
	"testing"

	"gpuvar/internal/gpu"
	"gpuvar/internal/thermal"
)

func TestTableISizes(t *testing.T) {
	// Paper Table I.
	cases := []struct {
		spec  Spec
		gpus  int
		nodes int
	}{
		{CloudLab(), 12, 3},
		{Longhorn(), 416, 104},
		{Frontera(), 360, 90},
		{Vortex(), 216, 54},
		{Summit(), 27648, 4608},
		{Corona(), 328, 82},
	}
	for _, c := range cases {
		if got := c.spec.NumGPUs(); got != c.gpus {
			t.Errorf("%s: %d GPUs, want %d", c.spec.Name, got, c.gpus)
		}
		if got := c.spec.NumNodes(); got != c.nodes {
			t.Errorf("%s: %d nodes, want %d", c.spec.Name, got, c.nodes)
		}
	}
}

func TestTableICoolingAndVendor(t *testing.T) {
	if Longhorn().Cooling.Cooling != thermal.Air || Corona().Cooling.Cooling != thermal.Air {
		t.Error("Longhorn and Corona are air-cooled")
	}
	if Vortex().Cooling.Cooling != thermal.Water || Summit().Cooling.Cooling != thermal.Water {
		t.Error("Vortex and Summit are water-cooled")
	}
	if Frontera().Cooling.Cooling != thermal.MineralOil {
		t.Error("Frontera is oil-cooled")
	}
	if Corona().SKU().Vendor != gpu.AMD {
		t.Error("Corona uses AMD MI60s")
	}
	if Summit().SKU().Name != "V100-SXM2" || Frontera().SKU().Name != "RTX5000" {
		t.Error("SKU assignment wrong")
	}
}

func TestInstantiateCounts(t *testing.T) {
	f := Longhorn().Instantiate(1)
	if len(f.Members) != 416 {
		t.Fatalf("instantiated %d members", len(f.Members))
	}
	if len(f.Nodes()) != 104 {
		t.Fatalf("nodes = %d", len(f.Nodes()))
	}
	if len(f.Groups()) != 8 {
		t.Fatalf("cabinets = %d", len(f.Groups()))
	}
}

// sharesOneSKU fails unless every chip of f points at the same SKU.
func sharesOneSKU(t *testing.T, f *Fleet) {
	t.Helper()
	sku := f.Members[0].Chip.SKU
	for _, m := range f.Members {
		if m.Chip.SKU != sku {
			t.Fatalf("%s: chip %s has its own *SKU; a fleet shares one", f.Spec.Name, m.Chip.ID)
		}
	}
}

func TestInstantiateSharesOneSKU(t *testing.T) {
	for _, spec := range All() {
		sharesOneSKU(t, spec.Instantiate(3))
	}
}

func TestInstantiateDeterministic(t *testing.T) {
	a := Longhorn().Instantiate(7)
	b := Longhorn().Instantiate(7)
	for i := range a.Members {
		if a.Members[i].Chip.VoltFactor != b.Members[i].Chip.VoltFactor ||
			a.Members[i].Chip.Defect != b.Members[i].Chip.Defect ||
			a.Members[i].Therm.AmbientC != b.Members[i].Therm.AmbientC {
			t.Fatalf("member %d differs between same-seed fleets", i)
		}
	}
	c := Longhorn().Instantiate(8)
	same := 0
	for i := range a.Members {
		if a.Members[i].Chip.VoltFactor == c.Members[i].Chip.VoltFactor {
			same++
		}
	}
	if same == len(a.Members) {
		t.Fatal("different seeds produced identical fleet")
	}
}

func TestGPUIDsUnique(t *testing.T) {
	f := Summit().Instantiate(1)
	seen := make(map[string]bool, len(f.Members))
	for _, m := range f.Members {
		if seen[m.Chip.ID] {
			t.Fatalf("duplicate GPU ID %s", m.Chip.ID)
		}
		seen[m.Chip.ID] = true
	}
}

func TestSummitTopology(t *testing.T) {
	f := Summit().Instantiate(1)
	rows := map[string]int{}
	for _, m := range f.Members {
		rows[m.Loc.Row]++
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for r, n := range rows {
		if n != 36*16*6 {
			t.Fatalf("row %s has %d GPUs, want %d", r, n, 36*16*6)
		}
	}
	// Row-H column 36 must have 16 nodes (Appendix B examines them).
	count := map[string]bool{}
	for _, m := range f.Members {
		if m.Loc.Row == "H" && m.Loc.Col == 36 {
			count[m.Loc.NodeID()] = true
		}
	}
	if len(count) != 16 {
		t.Fatalf("rowH col36 has %d nodes, want 16", len(count))
	}
}

func TestLonghornDefectPlacement(t *testing.T) {
	f := Longhorn().Instantiate(42)
	def := f.Defective()
	if len(def) != 4+3 {
		t.Fatalf("Longhorn defects = %d, want 7", len(def))
	}
	stallNodes := map[string]int{}
	for _, m := range def {
		if m.Chip.Defect == gpu.DefectStall {
			if m.Loc.Cabinet != "c002" {
				t.Fatalf("stall defect outside c002: %s", m.Loc.GPUID())
			}
			stallNodes[m.Loc.NodeID()]++
		}
	}
	if len(stallNodes) != 1 {
		t.Fatalf("stall defects span %d nodes, want exactly 1 whole node", len(stallNodes))
	}
	for _, n := range stallNodes {
		if n != 4 {
			t.Fatalf("stall node has %d defective GPUs, want all 4", n)
		}
	}
}

func TestFronteraDefectsInC197(t *testing.T) {
	f := Frontera().Instantiate(42)
	for _, m := range f.Defective() {
		if m.Chip.Defect != gpu.DefectClockStuck {
			t.Fatalf("unexpected defect kind %v", m.Chip.Defect)
		}
		if m.Loc.Cabinet != "c197" {
			t.Fatalf("stuck clock outside c197: %s", m.Loc.GPUID())
		}
	}
	if n := len(f.Defective()); n != 2 {
		t.Fatalf("Frontera defects = %d, want 2", n)
	}
}

func TestSummitBrakesConcentratedByRow(t *testing.T) {
	f := Summit().Instantiate(42)
	byRow := map[string]int{}
	brakes := 0
	for _, m := range f.Defective() {
		if m.Chip.Defect == gpu.DefectPowerBrake {
			byRow[m.Loc.Row]++
			brakes++
		}
	}
	if brakes != 42+22+18+16 {
		t.Fatalf("Summit brakes = %d", brakes)
	}
	if byRow["H"] != 42 || byRow["A"] != 22 || byRow["D"] != 18 || byRow["F"] != 16 {
		t.Fatalf("brake distribution = %v", byRow)
	}
	if byRow["B"] != 0 || byRow["C"] != 0 {
		t.Fatalf("brakes leaked into unaffected rows: %v", byRow)
	}
}

func TestVortexCleanAndObserved(t *testing.T) {
	f := Vortex().Instantiate(42)
	if len(f.Defective()) != 0 {
		t.Fatal("Vortex should have no planted defects")
	}
	obs := f.Observed()
	if len(obs) != 184 {
		t.Fatalf("Vortex observed = %d, want 184", len(obs))
	}
	// Observation subset is deterministic.
	obs2 := Vortex().Instantiate(42).Observed()
	for i := range obs {
		if obs[i].Chip.ID != obs2[i].Chip.ID {
			t.Fatal("observed subset not deterministic")
		}
	}
}

func TestCoronaWholeNodeCoolingDefect(t *testing.T) {
	f := Corona().Instantiate(42)
	def := f.Defective()
	if len(def) != 4 {
		t.Fatalf("Corona defects = %d, want 4 (one whole node)", len(def))
	}
	node := def[0].Loc.NodeID()
	for _, m := range def {
		if m.Loc.NodeID() != node {
			t.Fatal("cooling defect spans multiple nodes")
		}
		if m.Chip.Defect != gpu.DefectCooling {
			t.Fatalf("wrong defect kind %v", m.Chip.Defect)
		}
	}
}

func TestLocationNaming(t *testing.T) {
	l := Location{Row: "H", Col: 36, Node: 10, Slot: 3}
	if l.NodeID() != "rowH-col36-n10" {
		t.Fatalf("NodeID = %s", l.NodeID())
	}
	if l.GPUID() != "rowH-col36-n10-g3" {
		t.Fatalf("GPUID = %s", l.GPUID())
	}
	if l.Group() != "rowH" {
		t.Fatalf("Group = %s", l.Group())
	}
	flat := Location{Cabinet: "c002", Node: 5, Slot: 0}
	if flat.NodeID() != "c002-n05" || flat.Group() != "c002" {
		t.Fatalf("flat naming wrong: %s %s", flat.NodeID(), flat.Group())
	}
}

func TestByName(t *testing.T) {
	if s, ok := ByName("Summit"); !ok || s.Name != "Summit" {
		t.Fatal("ByName(Summit) failed")
	}
	if _, ok := ByName("Nonexistent"); ok {
		t.Fatal("ByName should fail for unknown clusters")
	}
}

func TestAllContainsSixClusters(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("All() = %d clusters", len(all))
	}
	names := map[string]bool{}
	for _, s := range all {
		names[s.Name] = true
	}
	for _, want := range []string{"CloudLab", "Longhorn", "Frontera", "Vortex", "Summit", "Corona"} {
		if !names[want] {
			t.Errorf("missing cluster %s", want)
		}
	}
}

func TestPositionsNormalized(t *testing.T) {
	f := Longhorn().Instantiate(1)
	for _, m := range f.Members {
		if m.Loc.Pos < 0 || m.Loc.Pos > 1 {
			t.Fatalf("position %v out of [0,1]", m.Loc.Pos)
		}
	}
	if f.Members[0].Loc.Pos != 0 || f.Members[len(f.Members)-1].Loc.Pos != 1 {
		t.Fatal("position endpoints wrong")
	}
}

func TestFleetGroupLabels(t *testing.T) {
	f := Frontera().Instantiate(1)
	for g := range f.Groups() {
		if !strings.HasPrefix(g, "c19") {
			t.Fatalf("unexpected Frontera cabinet %s", g)
		}
	}
}

func BenchmarkInstantiateSummit(b *testing.B) {
	spec := Summit()
	for i := 0; i < b.N; i++ {
		_ = spec.Instantiate(uint64(i))
	}
}

func TestWithSKU(t *testing.T) {
	spec := Longhorn().WithSKU("Longhorn-A100", gpu.A100SXM4)
	if spec.SKU().Name != "A100-SXM4" || spec.Name != "Longhorn-A100" {
		t.Fatalf("WithSKU wrong: %s / %s", spec.Name, spec.SKU().Name)
	}
	if len(spec.Defects) != 0 {
		t.Fatal("WithSKU should drop planted defects")
	}
	if spec.NumGPUs() != 416 {
		t.Fatal("topology must be preserved")
	}
	// The original spec is untouched.
	if Longhorn().SKU().Name != "V100-SXM2" {
		t.Fatal("WithSKU mutated the source spec")
	}
}
