package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"aerodrome/internal/core"
	"aerodrome/internal/parcheck"
	"aerodrome/internal/pipeline"
	"aerodrome/internal/rapidio"
	"aerodrome/internal/trace"
)

// algo is the engine every timed path runs: auto, the server default.
const algo = core.AlgoOptimizedAuto

// The three file→verdict paths of the aerodrome CLI, in the order of
// its modes: plain, -pipeline and -par 2.
const (
	modeSeq      = "seq"
	modePipeline = "pipeline"
	modePar2     = "par2"
)

var fileModes = []string{modeSeq, modePipeline, modePar2}

// reader is what both rapidio readers offer.
type reader interface {
	trace.Source
	pipeline.BatchSource
	Err() error
}

func newReader(r io.Reader, format string) reader {
	if format == formatBin {
		return rapidio.NewBinaryReader(r)
	}
	return rapidio.NewReader(r)
}

// checkFile runs one file through one CLI path exactly as cmd/aerodrome
// does, recording spans around each layer call when tr is on.
func checkFile(mode string, in *input, tr *Tracer, parent int64) (Verdict, parcheck.Stats, error) {
	var ps parcheck.Stats
	f, err := os.Open(in.path)
	if err != nil {
		return Verdict{}, ps, err
	}
	defer f.Close()
	src := newReader(f, in.spec.format)
	eng := core.New(algo)
	var v *core.Violation
	var n int64
	switch mode {
	case modeSeq:
		sp := tr.Start(parent, "core.Run", "")
		v, n = core.Run(eng, src)
		sp.End()
		err = src.Err()
	case modePipeline:
		sp := tr.Start(parent, "pipeline.RunMulti", "")
		v, n, err = pipeline.RunMulti(eng, nil, src, pipeline.Config{})
		sp.End()
	case modePar2:
		sp := tr.Start(parent, "parcheck.collect", "")
		events := trace.Collect(src).Events
		sp.End()
		if err = src.Err(); err != nil {
			break
		}
		sp = tr.Start(parent, "parcheck.check", "")
		v, n, ps = parcheck.Check(events, algo, 2)
		sp.End()
	default:
		err = fmt.Errorf("unknown mode %q", mode)
	}
	if err != nil {
		return Verdict{}, ps, fmt.Errorf("%s %s: %w", mode, in.spec.name, err)
	}
	return verdictOf(v, n), ps, nil
}

// fileResult is what the file phase measured: per mode, one throughput
// sample (Mevents/s) per round over all of the workload's files, raw and
// at the reference speed, and the largest peak RSS of any check process.
type fileResult struct {
	mevs    map[string][]float64 // raw: wall time
	ownMevs map[string][]float64 // net of steal (ref.go)
	norm    map[string][]float64 // net of steal, at the reference speed
	refs    []refTimes           // before each round and after the last
	events  map[string]int64     // events checked per mode, all timed rounds
	peakMB  float64
	rounds  int
	shards  int // par2 engines run, summed over files
	parRep  int // files whose par2 verdict came from a replay
}

// minSample is the least time one throughput sample measures. A path
// whose check of the workload's files takes less repeats it within the
// round, so every path gets about the same measuring time and a short
// path's sample is not a single, noisy check.
const minSample = 250 * time.Millisecond

// runFiles measures the file phase. First each file goes once through
// each path in a fresh child process, as a CLI invocation would, for its
// peak memory. Then the paths are timed in this process: one untimed
// round warms the heap and sets how many times each path repeats its
// checks in a sample (minSample), and timed rounds follow while another
// round of the average length fits in budget, at least minRounds of them.
// Neither the children nor the warm-up is charged to budget, so every
// workload gets its whole share of rounds. The mode order rotates each
// round so no path always runs first. The reference work runs before each
// round and after the last, on one thread and on every CPU, and a round's
// samples are scaled by the mean of the two reference times around it.
//
// The timed checks run in this process because a fresh process pays for
// faulting in its heap, and on a virtual machine that cost drifts with the
// host: checks of 1 MB traces in child processes ran up to twice as slow
// in some minutes as in others, while the same checks in a warm process
// moved far less.
func runFiles(files []*input, budget time.Duration, minRounds int, ref *refWork, tr *Tracer, t *tally) (fileResult, error) {
	res := fileResult{mevs: map[string][]float64{}, ownMevs: map[string][]float64{}, norm: map[string][]float64{}, events: map[string]int64{}}
	for _, mode := range fileModes {
		for _, in := range files {
			cr, err := checkInChild(mode, in)
			if err != nil {
				return res, err
			}
			t.record(compareVerdict("child "+mode+" "+in.spec.name, in.want, cr.Verdict))
			res.peakMB = max(res.peakMB, float64(cr.PeakKiB)/1024)
		}
	}
	reps := map[string]int{}
	for _, mode := range fileModes {
		start := time.Now()
		for _, in := range files {
			got, ps, err := checkFile(mode, in, nil, 0)
			if err == nil {
				err = compareVerdict("warm-up "+mode+" "+in.spec.name, in.want, got)
			}
			t.record(err)
			if mode == modePar2 {
				res.shards += ps.Shards
				if ps.Replayed {
					res.parRep++
				}
			}
		}
		warm := max(time.Since(start), time.Millisecond)
		reps[mode] = int((minSample + warm - 1) / warm)
	}
	res.refs = append(res.refs, ref.sample())
	start := time.Now()
	for round := 0; ; round++ {
		if spent := time.Since(start); round > 0 && round >= minRounds && spent+spent/time.Duration(round) > budget {
			break
		}
		rsp := tr.Start(0, "round", "")
		for k := range fileModes {
			mode := fileModes[(round+k)%len(fileModes)]
			var wall, own time.Duration
			var events int64
			// Each sample starts on a collected heap, as a CLI run does,
			// so it does not inherit a cycle the previous path started.
			runtime.GC()
			for rep := 0; rep < reps[mode]; rep++ {
				for _, in := range files {
					sp := tr.Start(rsp.ID(), "verdict."+mode, "")
					ck := startClock()
					got, _, err := checkFile(mode, in, tr, sp.ID())
					iv := ck.stop()
					wall, own = wall+iv.wall, own+iv.own
					sp.End()
					if err == nil {
						err = compareVerdict(mode+" "+in.spec.name, in.want, got)
					}
					t.record(err)
					events += got.Events
				}
			}
			res.events[mode] += events
			res.mevs[mode] = append(res.mevs[mode], float64(events)/1e6/wall.Seconds())
			res.ownMevs[mode] = append(res.ownMevs[mode], float64(events)/1e6/own.Seconds())
		}
		rsp.End()
		res.refs = append(res.refs, ref.sample())
		before, after := res.refs[round], res.refs[round+1]
		for _, mode := range fileModes {
			// The sequential path keeps one CPU busy, the others all.
			host := hostFactor((before.all + after.all) / 2)
			if mode == modeSeq {
				host = hostFactor((before.one + after.one) / 2)
			}
			res.norm[mode] = append(res.norm[mode], res.ownMevs[mode][round]*host)
		}
		res.rounds++
	}
	return res, nil
}
