// Package cluster describes the six computing systems of the paper's
// study (Table I) — CloudLab, TACC Longhorn, TACC Frontera, SNL Vortex,
// ORNL Summit, and LLNL Corona — and instantiates seeded fleets of
// modeled GPUs with the manufacturing spread, thermal environment, and
// defect placement calibrated to each cluster's published signatures.
package cluster

import (
	"fmt"

	"gpuvar/internal/gpu"
	"gpuvar/internal/rng"
	"gpuvar/internal/thermal"
)

// Location places a GPU within a cluster's physical topology. Summit
// uses row/column addressing (paper §IV-C breaks results down by row);
// the smaller clusters use cabinets of nodes.
type Location struct {
	Row     string // "A".."H" on Summit, "" elsewhere
	Col     int    // 1-based column within the row on Summit, 0 elsewhere
	Cabinet string // cabinet label, e.g. "c002" (Longhorn), "c197" (Frontera)
	Node    int    // 1-based node index within cabinet or row-column
	Slot    int    // 0-based GPU index within the node
	// Pos is the normalized 0..1 position across the fleet, used for
	// air-cooling gradients.
	Pos float64
}

// NodeID returns the node's unique name.
func (l Location) NodeID() string {
	if l.Row != "" {
		return fmt.Sprintf("row%s-col%02d-n%02d", l.Row, l.Col, l.Node)
	}
	return fmt.Sprintf("%s-n%02d", l.Cabinet, l.Node)
}

// GPUID returns the GPU's unique name.
func (l Location) GPUID() string { return fmt.Sprintf("%s-g%d", l.NodeID(), l.Slot) }

// Group returns the coarse grouping label used in the paper's box
// plots: cabinet for flat clusters, row for Summit.
func (l Location) Group() string {
	if l.Row != "" {
		return "row" + l.Row
	}
	return l.Cabinet
}

// DefectSpec plants one defect class into a fleet.
type DefectSpec struct {
	Kind gpu.DefectKind
	// GPUs is the number of GPUs affected.
	GPUs int
	// WholeNodes affects complete nodes (rounding GPUs up to node
	// granularity) — cooling problems are node- or cabinet-level.
	WholeNodes bool
	// Container restricts placement: a cabinet label ("c002"), a row
	// label ("rowH"), or "" for anywhere.
	Container string
}

// Spec is a cluster description sufficient to instantiate a fleet.
type Spec struct {
	Name        string
	SKU         func() *gpu.SKU
	Cooling     thermal.Params
	GPUsPerNode int

	// Flat topology (all clusters except Summit): cabinets of
	// CabinetNodes nodes named by CabinetLabels.
	CabinetLabels []string
	CabinetNodes  int

	// Summit topology: Rows × Cols × NodesPerCol nodes.
	Rows        []string
	Cols        int
	NodesPerCol int

	Variation gpu.VariationModel
	Defects   []DefectSpec

	// ObservedGPUs is how many GPUs the study measured (0 = all); the
	// paper covered >90% of each cluster, e.g. 184 of Vortex's 216.
	ObservedGPUs int
}

// NumNodes returns the total node count, honoring short last cabinets
// (Frontera's 4 cabinets hold 90 nodes, Corona's 21 hold 82).
func (s Spec) NumNodes() int {
	if len(s.Rows) > 0 {
		return len(s.Rows) * s.Cols * s.NodesPerCol
	}
	n := len(s.CabinetLabels) * s.CabinetNodes
	if cap, ok := nodeCaps[s.Name]; ok && cap < n {
		return cap
	}
	return n
}

// NumGPUs returns the total GPU count.
func (s Spec) NumGPUs() int { return s.NumNodes() * s.GPUsPerNode }

// cabinetRange builds labels like c002..c009.
func cabinetRange(prefix string, from, count int) []string {
	out := make([]string, count)
	for i := range out {
		out[i] = fmt.Sprintf("%s%03d", prefix, from+i)
	}
	return out
}

// CloudLab returns the 12-GPU CloudLab slice (§III, §VI-B): 3 nodes of
// 4 air-cooled V100s, where the authors had administrator rights to
// vary the power limit.
func CloudLab() Spec {
	return Spec{
		Name:          "CloudLab",
		SKU:           gpu.V100SXM2,
		Cooling:       thermal.AirParams(),
		GPUsPerNode:   4,
		CabinetLabels: []string{"cl0"},
		CabinetNodes:  3,
		Variation:     gpu.DefaultVariation(),
	}
}

// Longhorn returns TACC's air-cooled Longhorn: 104 nodes × 4 V100s in
// cabinets c002–c009 (Fig. 2's color key). Calibrated defects: one
// full stall node in c002 (the ResNet/SGEMM straggler cabinet, §V-A)
// and a few scattered power brakes (the 250 W outliers in Fig. 2c).
func Longhorn() Spec {
	return Spec{
		Name:          "Longhorn",
		SKU:           gpu.V100SXM2,
		Cooling:       thermal.AirParams(),
		GPUsPerNode:   4,
		CabinetLabels: cabinetRange("c", 2, 8),
		CabinetNodes:  13,
		Variation:     gpu.DefaultVariation(),
		Defects: []DefectSpec{
			{Kind: gpu.DefectStall, GPUs: 4, WholeNodes: true, Container: "c002"},
			{Kind: gpu.DefectPowerBrake, GPUs: 3},
		},
	}
}

// Frontera returns TACC's mineral-oil-cooled Frontera GPU subsystem:
// 90 nodes × 4 Quadro RTX 5000s in cabinets c196–c199. Two stuck-clock
// GPUs sit in c197 (the outliers that led operators to inspect the oil
// pump, §IV-F).
func Frontera() Spec {
	return Spec{
		Name:          "Frontera",
		SKU:           gpu.RTX5000,
		Cooling:       thermal.OilParams(),
		GPUsPerNode:   4,
		CabinetLabels: cabinetRange("c", 196, 4),
		CabinetNodes:  23, // 4 cabinets cover 90 nodes; the last is short
		Variation:     gpu.DefaultVariation(),
		Defects: []DefectSpec{
			{Kind: gpu.DefectClockStuck, GPUs: 2, Container: "c197"},
		},
	}
}

// Vortex returns SNL's water-cooled Vortex: 54 nodes × 4 V100s. The
// paper observed 184 GPUs and found no power outliers (all within 5 W
// of the limit, §IV-E), so no defects are planted.
func Vortex() Spec {
	return Spec{
		Name:          "Vortex",
		SKU:           gpu.V100SXM2,
		Cooling:       thermal.WaterParams(),
		GPUsPerNode:   4,
		CabinetLabels: cabinetRange("v", 0, 18),
		CabinetNodes:  3,
		Variation:     gpu.DefaultVariation(),
		ObservedGPUs:  184,
	}
}

// Summit returns ORNL's water-cooled Summit: 8 rows × 36 columns × 16
// nodes × 6 V100s = 27,648 GPUs. Power brakes concentrate in a few
// row-column pairs (rows A/D/F/H carry most outliers; row H column 36
// alone has 7 affected nodes — Appendix B), plus a mild cooling defect
// node (rowH-col36-n02's temperature outliers).
func Summit() Spec {
	return Spec{
		Name:        "Summit",
		SKU:         gpu.V100SXM2,
		Cooling:     thermal.WaterParams(),
		GPUsPerNode: 6,
		Rows:        []string{"A", "B", "C", "D", "E", "F", "G", "H"},
		Cols:        36,
		NodesPerCol: 16,
		Variation:   gpu.DefaultVariation(),
		Defects: []DefectSpec{
			{Kind: gpu.DefectPowerBrake, GPUs: 42, Container: "rowH"},
			{Kind: gpu.DefectPowerBrake, GPUs: 22, Container: "rowA"},
			{Kind: gpu.DefectPowerBrake, GPUs: 18, Container: "rowD"},
			{Kind: gpu.DefectPowerBrake, GPUs: 16, Container: "rowF"},
			{Kind: gpu.DefectCooling, GPUs: 6, WholeNodes: true, Container: "rowH"},
		},
	}
}

// Corona returns LLNL's air-cooled Corona: 82 nodes × 4 MI60s. The air
// path runs the MI60s near their 100 °C slowdown point; node c115 has a
// cooling defect (the 165 W outlier, §IV-D). Corona's air is calibrated
// hotter than Longhorn's: its dense chassis push the MI60s toward
// slowdown at SGEMM power.
func Corona() Spec {
	cool := thermal.AirParams()
	cool.ResistCPerW = 0.175
	cool.ResistSpread = 0.07
	cool.AmbientC = 32
	cool.AmbientSpreadC = 2.0
	cool.PositionGradientC = 4
	return Spec{
		Name:          "Corona",
		SKU:           gpu.MI60,
		Cooling:       cool,
		GPUsPerNode:   4,
		CabinetLabels: cabinetRange("cab", 0, 21), // 21 cabinets × 4 nodes
		CabinetNodes:  4,                          // 82 nodes: last cabinet short
		Variation:     gpu.DefaultVariation(),
		Defects: []DefectSpec{
			{Kind: gpu.DefectCooling, GPUs: 4, WholeNodes: true},
		},
	}
}

// All returns the five large HPC clusters plus CloudLab.
func All() []Spec {
	return []Spec{CloudLab(), Longhorn(), Frontera(), Vortex(), Summit(), Corona()}
}

// WithSKU returns a copy of the spec populated with a different GPU
// model (and no planted defects, so SKU comparisons isolate the silicon):
// the substrate for next-generation what-if studies.
func (s Spec) WithSKU(name string, sku func() *gpu.SKU) Spec {
	out := s
	out.Name = name
	out.SKU = sku
	out.Defects = nil
	return out
}

// Names lists the study's cluster names in Table I order.
func Names() []string {
	specs := All()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// ByName returns the named spec (case-sensitive) or false.
func ByName(name string) (Spec, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// nodeCap bounds real node counts for clusters whose last cabinet is
// short (Frontera 90 of 92, Corona 82 of 84).
var nodeCaps = map[string]int{"Frontera": 90, "Corona": 82}

// Member is one instantiated GPU: chip + thermal node + location.
type Member struct {
	Chip  *gpu.Chip
	Therm *thermal.Node
	Loc   Location
}

// Fleet is an instantiated cluster.
type Fleet struct {
	Spec    Spec
	Members []*Member
	seed    uint64
}

// Seed returns the seed the fleet was instantiated with.
func (f *Fleet) Seed() uint64 { return f.seed }

// Instantiate samples every chip and thermal node of the cluster from
// the given seed, then plants the spec's defects. The same (spec, seed)
// always produces the identical fleet.
func (s Spec) Instantiate(seed uint64) *Fleet {
	parent := rng.New(seed).Split("fleet:" + s.Name)
	f := &Fleet{Spec: s, seed: seed}

	locs := s.locations()
	total := len(locs)
	// Every chip shares the fleet's one SKU: chips only read it, and a
	// SKU per chip would cost a copy per GPU on Summit-sized fleets.
	sku := s.SKU()
	for i, loc := range locs {
		loc.Pos = float64(i) / float64(max(total-1, 1))
		chipStream := parent.SplitIndex("chip", i)
		thermStream := parent.SplitIndex("therm", i)
		chip := gpu.NewChip(sku, loc.GPUID(), s.Variation, chipStream)
		node := thermal.NewNode(s.Cooling, loc.Pos, thermStream)
		f.Members = append(f.Members, &Member{Chip: chip, Therm: node, Loc: loc})
	}
	f.plantDefects(parent.Split("defects"))
	return f
}

// locations enumerates every GPU slot of the cluster in a fixed order.
func (s Spec) locations() []Location {
	var out []Location
	if len(s.Rows) > 0 {
		for _, row := range s.Rows {
			for col := 1; col <= s.Cols; col++ {
				for n := 1; n <= s.NodesPerCol; n++ {
					for g := 0; g < s.GPUsPerNode; g++ {
						out = append(out, Location{Row: row, Col: col, Node: n, Slot: g})
					}
				}
			}
		}
		return out
	}
	capNodes := nodeCaps[s.Name]
	count := 0
	for _, cab := range s.CabinetLabels {
		for n := 1; n <= s.CabinetNodes; n++ {
			if capNodes > 0 && count >= capNodes {
				break
			}
			count++
			for g := 0; g < s.GPUsPerNode; g++ {
				out = append(out, Location{Cabinet: cab, Node: n, Slot: g})
			}
		}
	}
	return out
}

// plantDefects applies the spec's defect list deterministically.
func (f *Fleet) plantDefects(r *rng.Source) {
	for di, d := range f.Spec.Defects {
		stream := r.SplitIndex("spec", di)
		candidates := f.membersIn(d.Container)
		if len(candidates) == 0 {
			continue
		}
		if d.WholeNodes {
			nodes := groupByNode(candidates)
			names := sortedKeys(nodes)
			need := (d.GPUs + f.Spec.GPUsPerNode - 1) / f.Spec.GPUsPerNode
			for _, idx := range stream.Perm(len(names)) {
				if need == 0 {
					break
				}
				for _, m := range nodes[names[idx]] {
					m.Chip.InjectDefect(d.Kind, stream)
				}
				need--
			}
			continue
		}
		perm := stream.Perm(len(candidates))
		for i := 0; i < d.GPUs && i < len(perm); i++ {
			candidates[perm[i]].Chip.InjectDefect(d.Kind, stream)
		}
	}
}

// membersIn filters members by container label ("" = all).
func (f *Fleet) membersIn(container string) []*Member {
	if container == "" {
		return f.Members
	}
	var out []*Member
	for _, m := range f.Members {
		if m.Loc.Group() == container || m.Loc.Cabinet == container {
			out = append(out, m)
		}
	}
	return out
}

func groupByNode(ms []*Member) map[string][]*Member {
	out := map[string][]*Member{}
	for _, m := range ms {
		out[m.Loc.NodeID()] = append(out[m.Loc.NodeID()], m)
	}
	return out
}

func sortedKeys(m map[string][]*Member) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: node counts are small.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// Nodes groups the fleet's members by node, keyed by NodeID.
func (f *Fleet) Nodes() map[string][]*Member { return groupByNode(f.Members) }

// Groups groups the fleet's members by the paper's plot grouping
// (cabinet or row).
func (f *Fleet) Groups() map[string][]*Member {
	out := map[string][]*Member{}
	for _, m := range f.Members {
		out[m.Loc.Group()] = append(out[m.Loc.Group()], m)
	}
	return out
}

// Defective returns members with an injected defect.
func (f *Fleet) Defective() []*Member {
	var out []*Member
	for _, m := range f.Members {
		if !m.Chip.Healthy() {
			out = append(out, m)
		}
	}
	return out
}

// Observed returns the subset of the fleet the study would measure:
// ObservedGPUs members (deterministically chosen), or all when 0.
func (f *Fleet) Observed() []*Member {
	n := f.Spec.ObservedGPUs
	if n <= 0 || n >= len(f.Members) {
		return f.Members
	}
	r := rng.New(f.seed).Split("observe:" + f.Spec.Name)
	perm := r.Perm(len(f.Members))
	out := make([]*Member, n)
	for i := 0; i < n; i++ {
		out[i] = f.Members[perm[i]]
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
