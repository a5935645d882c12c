package cmdutil

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"litereconfig/internal/core"
	"litereconfig/internal/obs"
)

func TestParseFloats(t *testing.T) {
	got, err := ParseFloats("33.3, 50,90")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 33.3 || got[1] != 50 || got[2] != 90 {
		t.Fatalf("ParseFloats = %v", got)
	}
	if _, err := ParseFloats("33,abc"); err == nil {
		t.Error("bad float should error")
	}
}

func TestParsePolicies(t *testing.T) {
	got, err := ParsePolicies("full,LiteReconfig,MinCost, mincost ,maxcontent-resnet,resnet," +
		"maxcontent-mobilenet,mobilenet,")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Policy{core.PolicyFull, core.PolicyFull,
		core.PolicyMinCost, core.PolicyMinCost,
		core.PolicyMaxContentResNet, core.PolicyMaxContentResNet,
		core.PolicyMaxContentMobileNet, core.PolicyMaxContentMobileNet,
		core.PolicyFull}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParsePolicies = %v, want %v", got, want)
	}
	// A policy list carries no per-stream feature, so forced-feature
	// variants are not offered on the CLIs.
	for _, bad := range []string{"selsa", "full,force-hog"} {
		if _, err := ParsePolicies(bad); err == nil {
			t.Errorf("ParsePolicies(%q) should error", bad)
		}
	}
}

func TestFaultsDefaultSeed(t *testing.T) {
	if c, err := Faults("", 7); c != nil || err != nil {
		t.Fatalf("empty spec = %v, %v; want no faults", c, err)
	}
	c, err := Faults("spike=0.1", 7)
	if err != nil || c.Seed != 7 {
		t.Fatalf("unseeded spec = %+v, %v; want seed 7", c, err)
	}
	if c, err := Faults("spike=0.1,seed=3", 7); err != nil || c.Seed != 3 {
		t.Fatalf("seeded spec = %+v, %v; want seed 3", c, err)
	}
	specs, err := BoardFaults("spike=0.1;b1:panic=0.3,seed=3", []string{"b0", "b1"}, 7)
	if err != nil || specs["*"].Seed != 7 || specs["b1"].Seed != 3 {
		t.Fatalf("board specs = %+v, %v", specs, err)
	}
	if _, err := BoardFaults("b9:panic=0.3", []string{"b0", "b1"}, 7); err == nil {
		t.Error("unknown board label should error")
	}
}

// TestWriteTraceGzip: a .gz path must hold gzip (not plain JSON) that
// the obs readers decode back to the recorded trace.
func TestWriteTraceGzip(t *testing.T) {
	o := obs.New()
	so := o.StreamObserver(0, "s0")
	for i := 0; i < 3; i++ {
		d := so.BeginDecision(i*8, float64(i)*100)
		d.Branch = "s1_n1_det"
		so.EndGoF(8, 30)
	}
	o.RecordFleetEvent(obs.FleetEvent{Kind: "place", Stream: 0, To: "b0"})

	dir := t.TempDir()
	for _, name := range []string{"d.jsonl.gz", "d.jsonl"} {
		path := filepath.Join(dir, name)
		if err := WriteTrace(path, o.WriteTrace, len(o.Decisions()), "decisions"); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		gz := len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b
		if gz != (filepath.Ext(name) == ".gz") {
			t.Fatalf("%s: gzip magic = %v", name, gz)
		}
		r, err := obs.OpenTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := obs.ReadDecisions(r)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, o.Decisions()) {
			t.Fatalf("%s: read back %+v, want %+v", name, got, o.Decisions())
		}
	}

	path := filepath.Join(dir, "f.jsonl.gz")
	if err := WriteTrace(path, o.WriteFleetTrace, 1, "fleet events"); err != nil {
		t.Fatal(err)
	}
	r, err := obs.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	events, err := obs.ReadFleetEvents(r)
	if err != nil || !reflect.DeepEqual(events, o.FleetEvents()) {
		t.Fatalf("fleet trace read back %+v, %v; want %+v", events, err, o.FleetEvents())
	}
}
