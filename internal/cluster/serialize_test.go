package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	orig := Longhorn().Instantiate(42)
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFleet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Members) != len(orig.Members) {
		t.Fatalf("member count %d vs %d", len(loaded.Members), len(orig.Members))
	}
	sharesOneSKU(t, loaded)
	for i := range orig.Members {
		a, b := orig.Members[i], loaded.Members[i]
		if a.Chip.ID != b.Chip.ID {
			t.Fatalf("order changed at %d: %s vs %s", i, a.Chip.ID, b.Chip.ID)
		}
		if a.Chip.VoltFactor != b.Chip.VoltFactor ||
			a.Chip.LeakFactor != b.Chip.LeakFactor ||
			a.Chip.MemBWFac != b.Chip.MemBWFac {
			t.Fatalf("%s: manufacturing state did not round-trip", a.Chip.ID)
		}
		if a.Chip.Defect != b.Chip.Defect ||
			a.Chip.ClockCapMHz != b.Chip.ClockCapMHz ||
			a.Chip.ThermalResistFactor != b.Chip.ThermalResistFactor {
			t.Fatalf("%s: defect state did not round-trip", a.Chip.ID)
		}
		if a.Therm.AmbientC != b.Therm.AmbientC || a.Therm.ResistCPerW != b.Therm.ResistCPerW {
			t.Fatalf("%s: thermal state did not round-trip", a.Chip.ID)
		}
	}
}

func TestSnapshotDefectsEncoded(t *testing.T) {
	f := Frontera().Instantiate(42)
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"defect": "clock-stuck"`) {
		t.Fatal("defect not serialized")
	}
}

func TestLoadFleetRejectsGarbage(t *testing.T) {
	if _, err := LoadFleet(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadFleet(strings.NewReader(`{"cluster":"Nope","seed":1,"gpus":[]}`)); err == nil {
		t.Fatal("unknown cluster accepted")
	}
	if _, err := LoadFleet(strings.NewReader(`{"cluster":"Vortex","seed":1,"gpus":[]}`)); err == nil {
		t.Fatal("GPU count mismatch accepted")
	}
}

func TestLoadFleetUnknownDefect(t *testing.T) {
	f := CloudLab().Instantiate(1)
	snap := f.Snapshot()
	snap.GPUs[0].Defect = "gremlins"
	enc, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFleet(bytes.NewReader(enc)); err == nil {
		t.Fatal("unknown defect kind accepted")
	}
}
