// Package meta implements the execution half of Level 3: the design
// metadata objects created when a flow is actually executed.
//
// For each data class of the task schema the execution space holds a
// container of entity instances; for each activity it holds a container of
// runs. A run records one application of a tool (who, when, which tool
// instance, which iteration); an entity instance records one version of
// design data (its Level 4 ref, producing run, timestamps). In the paper's
// Fig. 2 these are the Run / Entity Instance / Instance Dependency objects
// of the Hercules representation.
package meta

import (
	"fmt"
	"time"

	"flowsched/internal/design"
	"flowsched/internal/schema"
	"flowsched/internal/store"
)

// RunContainer returns the container name for an activity's runs.
func RunContainer(activity string) string { return "run:" + activity }

// RunStatus is the outcome of a run.
type RunStatus string

const (
	RunInProgress RunStatus = "in-progress"
	RunSucceeded  RunStatus = "succeeded"
	RunFailed     RunStatus = "failed"
)

// Run is the payload of a run instance: the metadata of one tool
// application.
type Run struct {
	Activity  string    `json:"activity"`
	Tool      string    `json:"tool"`      // bound tool instance ref
	By        string    `json:"by"`        // designer
	Iteration int       `json:"iteration"` // 1-based per activity
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished,omitempty"`
	Status    RunStatus `json:"status"`
}

// Entity is the payload of an entity instance: design metadata about one
// version of design data.
type Entity struct {
	Class    string     `json:"class"`
	Activity string     `json:"activity,omitempty"` // producing activity; "" if imported
	RunID    string     `json:"run,omitempty"`      // producing run entry ID
	Data     design.Ref `json:"data"`               // Level 4 link
	By       string     `json:"by"`
	Started  time.Time  `json:"started"`
	Finished time.Time  `json:"finished"`
}

// Space is a typed view of a task database's execution space for one
// schema. Creating a Space creates the execution containers; it never
// touches Level 1 or Level 2 data.
//
// A Space is normally bound to a live *store.DB. AtView rebinds it to an
// immutable snapshot: reads answer from a consistent moment of the
// database and write methods fail.
type Space struct {
	// DB is the write target; nil for a view-bound (read-only) space.
	DB     *store.DB
	Schema *schema.Schema

	// rd overrides the read source when view-bound; nil means read the DB.
	rd store.Reader
}

// Reader returns the space's read source: the bound snapshot for a
// view-bound space, otherwise the live database.
func (s *Space) Reader() store.Reader {
	if s.rd != nil {
		return s.rd
	}
	return s.DB
}

// AtView returns a read-only copy of the space whose queries execute
// against the snapshot v. Write methods (ImportEntity, BeginRun, …) return
// an error on the returned space.
func (s *Space) AtView(v *store.View) *Space {
	return &Space{Schema: s.Schema, rd: v}
}

// WithDB returns a copy of the space bound to db for reads and writes,
// without validating the schema or creating containers again: db must
// already hold the space's containers, as a fork of the space's
// database does.
func (s *Space) WithDB(db *store.DB) *Space { return &Space{DB: db, Schema: s.Schema} }

// writable returns the live DB, or an error for a view-bound space.
func (s *Space) writable() (*store.DB, error) {
	if s.DB == nil {
		return nil, fmt.Errorf("meta: space is bound to a read-only view")
	}
	return s.DB, nil
}

// NewSpace initializes the execution space: one entity container per data
// class and one run container per activity.
func NewSpace(db *store.DB, sch *schema.Schema) (*Space, error) {
	if err := sch.Validate(); err != nil {
		return nil, fmt.Errorf("meta: %w", err)
	}
	for _, c := range sch.DataClasses() {
		if _, err := db.CreateContainer(c.Name, store.ExecutionSpace, c.Name); err != nil {
			return nil, err
		}
	}
	for _, r := range sch.Rules() {
		if _, err := db.CreateContainer(RunContainer(r.Activity), store.ExecutionSpace, r.Activity); err != nil {
			return nil, err
		}
	}
	return &Space{DB: db, Schema: sch}, nil
}

// ImportEntity records externally supplied design data (a primary input
// such as hand-written stimuli) as an entity instance with no producing
// run.
func (s *Space) ImportEntity(class string, data design.Ref, by string, at time.Time) (*store.Entry, error) {
	c := s.Schema.Class(class)
	if c == nil || c.Kind != schema.DataClass {
		return nil, fmt.Errorf("meta: %q is not a data class", class)
	}
	db, err := s.writable()
	if err != nil {
		return nil, err
	}
	return db.Put(class, at, Entity{
		Class: class, Data: data, By: by, Started: at, Finished: at,
	})
}

// BeginRun records the start of a tool application for an activity. The
// iteration number is assigned automatically (1-based per activity).
func (s *Space) BeginRun(activity, tool, by string, at time.Time) (*store.Entry, error) {
	rule := s.Schema.RuleByActivity(activity)
	if rule == nil {
		return nil, fmt.Errorf("meta: unknown activity %q", activity)
	}
	db, err := s.writable()
	if err != nil {
		return nil, err
	}
	cname := RunContainer(activity)
	iter := db.Container(cname).Len() + 1
	return db.Put(cname, at, Run{
		Activity: activity, Tool: tool, By: by, Iteration: iter,
		Started: at, Status: RunInProgress,
	})
}

// FinishRun closes a run with the given status.
func (s *Space) FinishRun(runID string, at time.Time, status RunStatus) error {
	db, err := s.writable()
	if err != nil {
		return err
	}
	e := db.Get(runID)
	if e == nil {
		return fmt.Errorf("meta: unknown run %q", runID)
	}
	var r Run
	if err := e.Decode(&r); err != nil {
		return err
	}
	if r.Status != RunInProgress {
		return fmt.Errorf("meta: run %s already finished (%s)", runID, r.Status)
	}
	if at.Before(r.Started) {
		return fmt.Errorf("meta: run %s finish %v precedes start %v", runID, at, r.Started)
	}
	r.Finished = at
	r.Status = status
	return db.SetPayload(runID, r)
}

// RecordEntity files the entity instance produced by a successful run,
// recording its data ref, designer, and time span, with instance
// dependencies on the consumed entity instances.
func (s *Space) RecordEntity(class, runID string, data design.Ref, deps ...string) (*store.Entry, error) {
	rule := s.Schema.Producer(class)
	if rule == nil {
		return nil, fmt.Errorf("meta: class %q has no producing activity", class)
	}
	db, err := s.writable()
	if err != nil {
		return nil, err
	}
	re := db.Get(runID)
	if re == nil {
		return nil, fmt.Errorf("meta: unknown run %q", runID)
	}
	var r Run
	if err := re.Decode(&r); err != nil {
		return nil, err
	}
	if r.Activity != rule.Activity {
		return nil, fmt.Errorf("meta: run %s belongs to activity %s, not producer %s of %s",
			runID, r.Activity, rule.Activity, class)
	}
	allDeps := append([]string{runID}, deps...)
	return db.Put(class, r.Finished, Entity{
		Class: class, Activity: r.Activity, RunID: runID, Data: data,
		By: r.By, Started: r.Started, Finished: r.Finished,
	}, allDeps...)
}

// Entities returns the decoded entity instances of a class in version
// order, paired with their entries.
func (s *Space) Entities(class string) ([]*store.Entry, []Entity, error) {
	c := s.Reader().Container(class)
	if c == nil {
		return nil, nil, fmt.Errorf("meta: unknown class %q", class)
	}
	entries := c.Entries()
	ents := make([]Entity, len(entries))
	for i, e := range entries {
		if err := e.Decode(&ents[i]); err != nil {
			return nil, nil, fmt.Errorf("meta: entity %s: %w", e.ID, err)
		}
	}
	return entries, ents, nil
}

// LatestEntity returns the newest entity instance of a class, or nil if
// none exist yet.
func (s *Space) LatestEntity(class string) (*store.Entry, *Entity, error) {
	c := s.Reader().Container(class)
	if c == nil {
		return nil, nil, fmt.Errorf("meta: unknown class %q", class)
	}
	e := c.Latest()
	if e == nil {
		return nil, nil, nil
	}
	var ent Entity
	if err := e.Decode(&ent); err != nil {
		return nil, nil, err
	}
	return e, &ent, nil
}

// Runs returns the decoded runs of an activity in iteration order.
func (s *Space) Runs(activity string) ([]*store.Entry, []Run, error) {
	c := s.Reader().Container(RunContainer(activity))
	if c == nil {
		return nil, nil, fmt.Errorf("meta: unknown activity %q", activity)
	}
	entries := c.Entries()
	runs := make([]Run, len(entries))
	for i, e := range entries {
		if err := e.Decode(&runs[i]); err != nil {
			return nil, nil, fmt.Errorf("meta: run %s: %w", e.ID, err)
		}
	}
	return entries, runs, nil
}
