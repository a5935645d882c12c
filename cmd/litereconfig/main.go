// Command litereconfig mirrors the paper artifact's LiteReconfig.py: it
// runs one protocol on one simulated device under a latency SLO and a
// GPU contention level, over the validation corpus, and writes per-frame
// detection and latency logs plus a summary.
//
// Usage (mirroring the artifact's flags):
//
//	litereconfig --gl 0 --lat_req 33.3 --mobile_device tx2 \
//	             --protocol LiteReconfig --models models.gob \
//	             --output test/executor_LiteReconfig.txt
//
// Protocols: LiteReconfig, MinCost, MaxContent_ResNet,
// MaxContent_MobileNet, ApproxDet, SSD, YOLO.
//
// For the scheduler-driven protocols, -trace <file> writes every
// scheduler decision as JSON Lines (a .gz suffix gzip-compresses it, as
// on every CLI) and -metrics prints the run's metrics registry in
// Prometheus exposition format. -faults injects a seeded
// deterministic fault schedule (e.g. -faults spike=0.05,extract=0.1)
// and engages the scheduler's graceful-degradation machinery.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"litereconfig/internal/cmdutil"
	"litereconfig/internal/contend"
	"litereconfig/internal/core"
	"litereconfig/internal/fixture"
	"litereconfig/internal/harness"
	"litereconfig/internal/obs"
	"litereconfig/internal/report"
	"litereconfig/internal/vid"
)

// protocolName maps the artifact-style protocol flag to the report
// package's canonical protocol names.
func protocolName(flag string) (string, error) {
	switch strings.ToLower(flag) {
	case "litereconfig":
		return "LiteReconfig", nil
	case "mincost", "litereconfig-mincost":
		return "LiteReconfig-MinCost", nil
	case "maxcontent_resnet", "smartadapt_rpn":
		return "LiteReconfig-MaxContent-ResNet", nil
	case "maxcontent_mobilenet", "smartadapt_mobilenet":
		return "LiteReconfig-MaxContent-MobileNet", nil
	case "approxdet":
		return "ApproxDet", nil
	case "ssd", "ssd+":
		return "SSD+", nil
	case "yolo", "yolo+":
		return "YOLO+", nil
	}
	return "", fmt.Errorf("unknown protocol %q", flag)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("litereconfig: ")

	gl := flag.Float64("gl", 0, "GPU contention level in percent (0-99)")
	latReq := flag.Float64("lat_req", 33.3, "latency SLO in ms per frame")
	device := flag.String("mobile_device", "tx2", "device: tx2 or xv")
	protoFlag := flag.String("protocol", "LiteReconfig", "protocol to run")
	modelFile := flag.String("models", "", "trained model file from lrtrain (trains a small model set if empty)")
	output := flag.String("output", "", "output file prefix; writes <prefix>_det.txt and <prefix>_lat.txt")
	valVideos := flag.Int("val_videos", 20, "validation videos")
	frames := flag.Int("frames", 240, "frames per validation video")
	seed := flag.Int64("seed", 7, "corpus seed")
	traceFile := flag.String("trace", "", "write the scheduler decision trace (JSON Lines) to this file; a .gz suffix gzip-compresses it")
	metrics := flag.Bool("metrics", false, "print the metrics registry (Prometheus exposition format) after the run")
	faults := flag.String("faults", "", "fault-injection spec, e.g. spike=0.05,extract=0.1,burst=0.02,stall=0.01 (empty = no faults)")
	flag.Parse()

	dev, err := cmdutil.Device(*device)
	if err != nil {
		log.Fatal(err)
	}
	name, err := protocolName(*protoFlag)
	if err != nil {
		log.Fatal(err)
	}
	faultCfg, err := cmdutil.Faults(*faults, *seed)
	if err != nil {
		log.Fatal(err)
	}
	models, err := cmdutil.LoadModels(*modelFile)
	if err != nil {
		log.Fatal(err)
	}

	// Validation corpus (disjoint seed range from training, Sec. 5.2).
	val := make([]*vid.Video, *valVideos)
	for i := range val {
		val[i] = vid.Generate(fmt.Sprintf("val_%03d", i),
			*seed+200000+int64(i), vid.GenConfig{Frames: *frames})
	}

	// Protocol setup via the shared experiment builder. SSD+/YOLO+ need
	// offline profiling videos.
	setup := &fixture.Setup{Models: models, Corpus: &vid.Corpus{Val: val}}
	setup.Corpus.DetTrain = make([]*vid.Video, 8)
	for i := range setup.Corpus.DetTrain {
		setup.Corpus.DetTrain[i] = vid.Generate(fmt.Sprintf("prof_%03d", i),
			*seed+int64(i), vid.GenConfig{Frames: *frames})
	}
	sc := report.Scenario{Device: dev, Contention: *gl / 100, SLO: *latReq}
	p, err := report.BuildProtocol(setup, name, sc)
	if err != nil {
		log.Fatal(err)
	}

	if faultCfg != nil {
		pl, ok := p.(*core.Pipeline)
		if !ok {
			log.Fatalf("protocol %s has no scheduler; --faults requires a scheduler-driven protocol", name)
		}
		pl.Faults = faultCfg
		pl.FaultSeed = *seed
		log.Printf("fault injection on: %s (seed %d)", *faults, *seed)
	}

	var observer *obs.Observer
	if *traceFile != "" || *metrics {
		observer = obs.New()
		if pl, ok := p.(*core.Pipeline); ok {
			pl.SetObserver(observer.StreamObserver(0, name))
		} else {
			log.Printf("protocol %s has no scheduler decisions; trace will be empty", name)
		}
	}

	log.Printf("running %s on %s, SLO %.1f ms, %.0f%% GPU contention, %d videos",
		name, dev.Name, *latReq, *gl, len(val))
	res := harness.Evaluate(p, val, dev, *latReq, contend.Fixed{G: *gl / 100}, 1234)

	fmt.Println(res.Summary())
	fmt.Printf("violation rate: %.2f%% | mean %.2f ms | P95 %.2f ms | branches used: %d | switches: %d\n",
		res.Latency.ViolationRate(*latReq)*100, res.Latency.Mean(),
		res.Latency.P95(), res.BranchCoverage, res.Switches)
	if len(res.FeatureUse) > 0 {
		fmt.Printf("content features used: %v over %d frames\n", res.FeatureUse, res.Breakdown.Frames())
	}
	if *faults != "" {
		if pl, ok := p.(*core.Pipeline); ok {
			fmt.Printf("degradation: watchdog overruns %d | breaker opens %d | degrade level %d\n",
				pl.Sched.Overruns(), pl.Sched.BreakerOpens(), pl.Sched.DegradeLevel())
		}
	}

	if *output != "" {
		if err := writeLogs(*output, res); err != nil {
			log.Fatal(err)
		}
	}
	if *traceFile != "" {
		if err := cmdutil.WriteTrace(*traceFile, observer.WriteTrace, len(observer.Decisions()), "decisions"); err != nil {
			log.Fatal(err)
		}
	}
	if *metrics {
		fmt.Println()
		fmt.Print(observer.Snapshot().Text())
	}
}

// writeLogs emits the artifact-style per-frame detection and latency
// files.
func writeLogs(prefix string, res *harness.Result) error {
	base := strings.TrimSuffix(prefix, filepath.Ext(prefix))
	if dir := filepath.Dir(base); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	det, err := os.Create(base + "_det.txt")
	if err != nil {
		return err
	}
	defer det.Close()
	for fi, fr := range res.Frames {
		for _, d := range fr.Dets {
			fmt.Fprintf(det, "%d %s %.3f %.1f %.1f %.1f %.1f\n",
				fi, d.Class, d.Score, d.Box.X, d.Box.Y, d.Box.MaxX(), d.Box.MaxY())
		}
	}
	lat, err := os.Create(base + "_lat.txt")
	if err != nil {
		return err
	}
	defer lat.Close()
	for i, v := range res.Latency.Samples() {
		fmt.Fprintf(lat, "%d %.4f\n", i, v)
	}
	log.Printf("wrote %s_det.txt and %s_lat.txt", base, base)
	return det.Close()
}
