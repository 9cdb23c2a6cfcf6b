package flowsched

import (
	"strings"
	"testing"
	"time"
)

func TestExportPlanCSVAndMPX(t *testing.T) {
	p := prepared(t)
	if _, err := viewOf(t, p).ExportPlanCSV(); err == nil {
		t.Fatal("export without plan accepted")
	}
	if _, err := viewOf(t, p).ExportMPX(); err == nil {
		t.Fatal("MPX without plan accepted")
	}
	if _, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	csvOut, err := viewOf(t, p).ExportPlanCSV()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvOut, "Create") || !strings.Contains(csvOut, "Simulate") {
		t.Fatalf("csv:\n%s", csvOut)
	}
	mpx, err := viewOf(t, p).ExportMPX()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(mpx, "MPX,flowsched") {
		t.Fatalf("mpx:\n%s", mpx)
	}
}

func TestImportActualsCSVAppliesAndLinks(t *testing.T) {
	p := prepared(t)
	if _, err := p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{}); err != nil {
		t.Fatal(err)
	}
	// Execute untracked so entity instances exist but the plan has no
	// actuals — the situation where status is collected by hand.
	if _, err := p.Run([]string{"performance"}, false); err != nil {
		t.Fatal(err)
	}
	src := `activity,actual_start,actual_finish,done
Create,1995-06-05T09:00,1995-06-06T17:00,true
Simulate,1995-06-07T09:00,,false
`
	n, err := p.ImportActualsCSV(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("applied = %d", n)
	}
	st, err := viewOf(t, p).Status()
	if err != nil {
		t.Fatal(err)
	}
	if st[0].State != "done" || st[1].State != "in-progress" {
		t.Fatalf("status = %+v", st)
	}
	// The hand-entered completion still created a schedule↔entity link.
	ans, err := viewOf(t, p).Query("duration of Create")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans, "16h") {
		t.Fatalf("duration = %s", ans)
	}
}

func TestImportActualsCSVWithoutEntities(t *testing.T) {
	p := prepared(t)
	p.Plan([]string{"performance"}, Fixed{Default: 8 * time.Hour}, PlanOptions{})
	// No execution: completing Create cannot link to any netlist.
	src := "Create,1995-06-05T09:00,1995-06-06T17:00,true\n"
	if _, err := p.ImportActualsCSV(strings.NewReader(src)); err == nil ||
		!strings.Contains(err.Error(), "no netlist entity") {
		t.Fatalf("err = %v", err)
	}
	// Without a plan at all.
	p2 := prepared(t)
	if _, err := p2.ImportActualsCSV(strings.NewReader(src)); err == nil {
		t.Fatal("import without plan accepted")
	}
}
