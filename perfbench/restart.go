package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"flowsched"
)

// measureRestart copies the live project's directory without closing
// it, which is what kill -9 leaves behind, registers each copy as a new
// tenant, and times GET /p/{copy}/status to its first 200. Each copy
// must serve the crashed project's store version and /status body.
// Traced rounds also time flowsched.Open (replay) and Registry.Get
// (host load) directly on further copies.
func (e *env) measureRestart(w *workload, res *roundResult, chk *checker) error {
	n := w.copies
	if e.tr != nil {
		n *= 3
	}
	src := filepath.Join(e.dir, "root", projectID)
	var ids []string
	// Holding the project's write lock keeps any write from landing
	// mid-copy; every acknowledged record is already synced.
	err := e.hd.Do(func(*flowsched.Project) error {
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("crash%02d", i)
			if err := copyDir(src, filepath.Join(e.dir, "root", id)); err != nil {
				return err
			}
			ids = append(ids, id)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("crash copies: %w", err)
	}
	want, err := e.do("GET", e.base+"/status", nil, 0)
	if err != nil || want.status != http.StatusOK {
		return fmt.Errorf("live status: %d %v", want.status, err)
	}
	for _, id := range ids[:w.copies] {
		// Nothing else runs during a restart, so the process's CPU time
		// over the request is the restart's CPU cost. Each starts from a
		// collected heap, so that cost does not include collecting what
		// the timed phase or the previous restart left.
		runtime.GC()
		c, t := cpuTime(), time.Now()
		got, err := e.do("GET", e.root+"/p/"+id+"/status", nil, 0)
		lat, cpu := time.Since(t), cpuTime()-c
		res.restartOps++
		if err != nil || got.status != http.StatusOK {
			res.restartBad++
			chk.fail("restart %s: status %d: %v", id, got.status, err)
			continue
		}
		res.restart = append(res.restart, lat)
		res.restartCPU = append(res.restartCPU, cpu)
		if got.version != want.version {
			chk.fail("restart %s: version %d, crashed project at %d", id, got.version, want.version)
		}
		if !bytes.Equal(got.body, want.body) {
			chk.fail("restart %s: /status body differs from the crashed project's", id)
		}
	}
	if e.tr == nil {
		return nil
	}
	for _, id := range ids[w.copies : 2*w.copies] {
		dir := filepath.Join(e.dir, "root", id)
		pending, err := pendingRecords(dir)
		if err != nil {
			return err
		}
		t := time.Now()
		p, err := flowsched.Open(dir, "", projectOptions, flowsched.PersistOptions{FS: &countingFS{name: "copy"}})
		lat := time.Since(t)
		if err != nil {
			return fmt.Errorf("replay %s: %w", id, err)
		}
		e.addLayer("persist.replay_ms", ms(lat))
		e.addLayer("persist.replay_records", float64(p.WALSeq()-pending))
		if err := p.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	for _, id := range ids[2*w.copies:] {
		t := time.Now()
		hd, err := e.h.Projects().Get(id)
		lat := time.Since(t)
		if err != nil {
			return fmt.Errorf("host load %s: %w", id, err)
		}
		hd.Release()
		e.addLayer("host.load_ms", ms(lat))
	}
	return nil
}

// pendingRecords returns the sequence number the directory's checkpoint
// covers (0 without one); records past it are replayed on open.
func pendingRecords(dir string) (uint64, error) {
	b, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var cp struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(b, &cp); err != nil {
		return 0, err
	}
	return cp.Seq, nil
}
