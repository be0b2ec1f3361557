package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"cellqos/internal/core"
	"cellqos/internal/predict"
	"cellqos/internal/service"
	"cellqos/internal/topology"
)

// serveFlags configures the long-running admission-server mode
// (-serve): a ring of in-process base stations driven continuously,
// with crash-safe estimator checkpointing, an overload gate, and a
// graceful SIGINT/SIGTERM drain (DESIGN.md §14).
type serveFlags struct {
	serve           *bool
	stateDir        *string
	checkpointEvery *time.Duration
	events          *uint64
	pace            *time.Duration
	step            *float64
	gateCapacity    *float64
	gateRefill      *float64
	drainTimeout    *time.Duration
	nquad           *int
	workers         *int
	reportPath      *string
}

func addServeFlags(fs *flag.FlagSet) *serveFlags {
	return &serveFlags{
		serve:           fs.Bool("serve", false, "run as a long-lived admission server instead of a bounded drive"),
		stateDir:        fs.String("state-dir", "", "checkpoint directory for -serve (empty = stateless)"),
		checkpointEvery: fs.Duration("checkpoint-every", 5*time.Second, "wall cadence between periodic checkpoints (0 = final flush only)"),
		events:          fs.Uint64("serve-events", 0, "events to serve before a clean shutdown (0 = run until signalled)"),
		pace:            fs.Duration("pace", time.Millisecond, "wall-clock pause between events (0 = flat out)"),
		step:            fs.Float64("step", 1, "simulation seconds per event"),
		gateCapacity:    fs.Float64("gate-capacity", 0, "overload gate burst capacity in new calls (0 = gate off)"),
		gateRefill:      fs.Float64("gate-refill", 0, "overload gate refill rate in new calls per second"),
		drainTimeout:    fs.Duration("drain-timeout", 5*time.Second, "shutdown budget for in-flight admissions"),
		nquad:           fs.Int("nquad", 100, "estimator quadruplet cache size per (prev, next) pair"),
		workers:         fs.Int("workers", 0, "admission worker goroutines (0 = inline on the drive loop)"),
		reportPath:      fs.String("serve-report", "", "write the final report as JSON to this file"),
	}
}

// serveReport is the JSON document written to -serve-report: the
// service's own accounting plus each cell's final reservation state,
// which the crash-recovery test compares against a never-crashed
// control run.
type serveReport struct {
	service.Report
	Cells []serveCellReport
}

type serveCellReport struct {
	Br   float64
	Used int
}

// runServe is the -serve entry point; its return value is the process
// exit code (service.ExitClean/ExitFailed/ExitDegraded).
func runServe(sf *serveFlags, cells int, seed uint64, doAudit bool, fallback core.Fallback, stdout, stderr io.Writer) int {
	top := topology.Ring(cells)
	mesh := service.NewMeshCells(top, func(id topology.CellID, degree int) *core.Engine {
		return core.NewEngine(core.Config{
			Capacity: 100, Degree: degree, Admission: core.MustPolicy("AC3"),
			PHDTarget: 0.01, TStart: 1,
			Estimation: predict.Config{Tint: math.Inf(1), NQuad: *sf.nquad},
			Fallback:   fallback,
			Lock:       &sync.Mutex{},
		})
	})

	var ck *service.Checkpointer
	if *sf.stateDir != "" {
		var err error
		if ck, err = service.NewCheckpointer(*sf.stateDir); err != nil {
			fmt.Fprintf(stderr, "bsnet: %v\n", err)
			return service.ExitFailed
		}
	}
	srv := service.New(service.Config{
		Cells:           mesh,
		Checkpointer:    ck,
		CheckpointEvery: *sf.checkpointEvery,
		Pace:            *sf.pace,
		Gate:            service.NewGate(*sf.gateCapacity, *sf.gateRefill, nil),
		DrainTimeout:    *sf.drainTimeout,
		Workers:         *sf.workers,
		Seed:            seed,
		Audit:           doAudit,
	})

	info, err := srv.Restore()
	if err != nil {
		fmt.Fprintf(stderr, "bsnet: restore: %v\n", err)
		return service.ExitFailed
	}
	if info.Found {
		fmt.Fprintf(stdout, "restored checkpoint seq %d from %s (sim time %.3f)\n", info.Seq, info.Source, info.SimNow)
	} else {
		fmt.Fprintf(stdout, "cold start: no checkpoint to restore\n")
	}
	srv.SetTime(service.NewStepSource(info.SimNow, *sf.step))

	// First SIGINT/SIGTERM starts the graceful shutdown; the done
	// channel retires the watcher on the no-signal path so bounded
	// in-process runs (tests) don't leak it.
	stop := make(chan struct{})
	done := make(chan struct{})
	defer close(done)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		select {
		case <-sig:
			close(stop)
		case <-done:
		}
	}()

	fmt.Fprintf(stdout, "serving %d base stations (seed %d, nquad %d, %d workers)\n", cells, seed, *sf.nquad, *sf.workers)
	rep := srv.Serve(*sf.events, stop)

	fmt.Fprintf(stdout, "served %d events: %d new calls offered (%d admitted, %d blocked, %d shed), %d hand-offs, %d completions\n",
		rep.Events, rep.Offered, rep.Admitted, rep.Blocked, rep.Shed, rep.HandOffs, rep.Completions)
	fmt.Fprintf(stdout, "checkpoints: %d written, last seq %d; drained=%v final-flush=%v\n",
		rep.Checkpoints, rep.Seq, rep.DrainOK, rep.FinalFlushOK)
	if rep.Err != "" {
		fmt.Fprintf(stderr, "bsnet: %s\n", rep.Err)
	}

	out := serveReport{Report: *rep, Cells: make([]serveCellReport, len(mesh))}
	for i, c := range mesh {
		out.Cells[i] = serveCellReport{
			Br:   c.Engine.ComputeTargetReservation(rep.FinalSimNow, c.Peers),
			Used: c.Engine.UsedBandwidth(),
		}
	}
	if *sf.reportPath != "" {
		data, err := json.MarshalIndent(&out, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "bsnet: report: %v\n", err)
			return service.ExitFailed
		}
		if err := os.WriteFile(*sf.reportPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "bsnet: report: %v\n", err)
			return service.ExitFailed
		}
	}
	fmt.Fprintf(stdout, "exit %d\n", rep.ExitCode)
	return rep.ExitCode
}
