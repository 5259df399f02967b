package figures

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"gpuvar/internal/cluster"
)

// quickSession keeps figure tests fast.
func quickSession() *Session {
	return NewSession(Config{
		Seed:           2022,
		SummitFraction: 0.02,
		Iterations:     6,
		MLIterations:   10,
		Runs:           2,
	})
}

func TestAllGeneratorsHaveUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range AllWithExtensions() {
		if seen[g.ID] {
			t.Fatalf("duplicate generator id %s", g.ID)
		}
		seen[g.ID] = true
		if g.Title == "" || g.Fn == nil {
			t.Fatalf("generator %s incomplete", g.ID)
		}
	}
	if len(seen) != 36 {
		t.Fatalf("expected 36 generators (2 tables + 26 figures + impact + 7 extensions), got %d", len(seen))
	}
}

func TestGenerateAllEndToEnd(t *testing.T) {
	// Every paper figure and extension must regenerate without error in
	// one session. This is the acceptance test for deliverable (d).
	if testing.Short() {
		t.Skip("full regeneration is a few seconds")
	}
	s := quickSession()
	var buf bytes.Buffer
	if err := GenerateAll(context.Background(), s, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "=== "); got != 36 {
		t.Fatalf("generated %d sections, want 36", got)
	}
	// Nothing may render empty: each section carries content lines.
	for _, g := range AllWithExtensions() {
		if !strings.Contains(out, g.Title) {
			t.Errorf("missing section %q", g.Title)
		}
	}
}

func TestUnknownIDRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(context.Background(), "fig99", quickSession(), &buf); err == nil {
		t.Fatal("unknown figure id accepted")
	}
}

func TestTab1MatchesPaper(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(context.Background(), "tab1", quickSession(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Longhorn", "27648", "mineral oil", "MI60", "V100-SXM2"} {
		if !strings.Contains(out, want) {
			t.Errorf("tab1 missing %q:\n%s", want, out)
		}
	}
}

func TestTab2ListsAllApplications(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(context.Background(), "tab2", quickSession(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"SGEMM-25536", "SGEMM-24576", "ResNet50", "BERT", "LAMMPS", "PageRank"} {
		if !strings.Contains(out, want) {
			t.Errorf("tab2 missing %q", want)
		}
	}
}

func TestFig1RendersAllClusters(t *testing.T) {
	s := quickSession()
	var buf bytes.Buffer
	if err := Generate(context.Background(), "fig1", s, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, cl := range []string{"Longhorn", "Summit", "Corona", "Vortex", "Frontera"} {
		if !strings.Contains(out, cl) {
			t.Errorf("fig1 missing %s", cl)
		}
	}
	if !strings.Contains(out, "[") {
		t.Error("fig1 missing box glyphs")
	}
}

func TestSessionCachesResults(t *testing.T) {
	s := quickSession()
	var buf bytes.Buffer
	if err := Generate(context.Background(), "fig2", s, &buf); err != nil {
		t.Fatal(err)
	}
	if len(s.done) == 0 {
		t.Fatal("session cache empty after fig2")
	}
	before := len(s.done)
	// fig3 reuses fig2's experiment.
	if err := Generate(context.Background(), "fig3", s, &buf); err != nil {
		t.Fatal(err)
	}
	if len(s.done) != before {
		t.Error("fig3 should reuse fig2's cached run")
	}
}

func TestFig8ReportsPerGPUVariation(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(context.Background(), "fig8", quickSession(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "median per-GPU variation") {
		t.Fatalf("fig8 output: %s", buf.String())
	}
}

func TestFig11ShowsTwoGPUs(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(context.Background(), "fig11", quickSession(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "GPU-1") || !strings.Contains(out, "GPU-2") {
		t.Fatalf("fig11 missing GPUs:\n%s", out)
	}
	if !strings.Contains(out, "MHz") || !strings.Contains(out, " W") {
		t.Error("fig11 missing units")
	}
}

func TestFig22SweepsCaps(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(context.Background(), "fig22", quickSession(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, capW := range []string{"300", "150", "100"} {
		if !strings.Contains(out, capW) {
			t.Errorf("fig22 missing %s W row", capW)
		}
	}
}

func TestFig25ShowsBrakeSignature(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(context.Background(), "fig25", quickSession(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "pinned") {
		t.Fatalf("fig25 missing pin note:\n%s", out)
	}
	if !strings.Contains(out, "run 1") || !strings.Contains(out, "run 2") {
		t.Error("fig25 should show two runs")
	}
}

func TestImpactTable(t *testing.T) {
	var buf bytes.Buffer
	if err := Generate(context.Background(), "impact", quickSession(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "P(4-GPU job hits one)") {
		t.Fatalf("impact output: %s", out)
	}
	if !strings.Contains(out, "early-warning report") {
		t.Error("impact missing early-warning report")
	}
}

func TestAppFigures(t *testing.T) {
	s := quickSession()
	for _, id := range []string{"fig14", "fig16", "fig17", "fig18", "fig19"} {
		var buf bytes.Buffer
		if err := Generate(context.Background(), id, s, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "variation:") {
			t.Errorf("%s missing variation summary", id)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seed != 2022 || c.Iterations != 20 || c.SummitFraction != 0.08 {
		t.Fatalf("defaults wrong: %+v", c)
	}
}

// At SummitFraction 1 the row-H deep dive, Fig. 20's Monday and the
// Summit characterization are one experiment: the session runs and
// retains it once, and Fig. 20's other days are not retained.
func TestSessionSharesFullSummitRun(t *testing.T) {
	if testing.Short() {
		t.Skip("seven full-Summit runs are slow")
	}
	s := NewSession(Config{SummitFraction: 1, Iterations: 2, MLIterations: 2, Runs: 2})
	ctx := context.Background()
	if _, err := s.rowH(ctx); err != nil {
		t.Fatal(err)
	}
	if err := Generate(ctx, "fig20", s, io.Discard); err != nil {
		t.Fatal(err)
	}
	summit, err := s.sgemmOn(ctx, cluster.Summit(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.done) != 1 {
		keys := make([]string, 0, len(s.done))
		for k := range s.done {
			keys = append(keys, k)
		}
		t.Fatalf("session retains %d experiments %v, want the one shared Summit run", len(s.done), keys)
	}
	for _, e := range s.done {
		if e.res != summit {
			t.Fatal("sgemmOn did not return the run rowH and fig20 share")
		}
	}
}
