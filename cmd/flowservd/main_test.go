package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowsched/internal/serve"
)

// TestStartupErrorsNameTheOffendingPath pins the operator contract:
// a daemon that cannot start returns a non-nil error (main exits
// non-zero) whose message names the path or flag that broke, so a
// botched unit file is diagnosable from the one log line.
func TestStartupErrorsNameTheOffendingPath(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "nope.json")
	notDir := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(notDir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	badSession := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badSession, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		want string // substring the error must carry
	}{
		{"missing session", []string{"-load", missing}, missing},
		{"corrupt session", []string{"-load", badSession}, badSession},
		{"missing schema file", []string{"-schema", missing}, missing},
		{"root is a file", []string{"-root", notDir}, notDir},
		{"root with load", []string{"-root", t.TempDir(), "-load", badSession}, "mutually exclusive"},
		{"run without plan", []string{"-run"}, "-plan"},
		{"negative startup hours", []string{"-plan", "performance", "-hours", "-3"}, `bad hours "-3"`},
		{"zero startup hours", []string{"-plan", "performance", "-hours", "0", "-run"}, `bad hours "0"`},
		{"unknown flag", []string{"-definitely-not-a-flag"}, "definitely-not-a-flag"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := run(c.args)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want startup error", c.args)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run(%v) error %q does not name %q", c.args, err, c.want)
			}
		})
	}
}

// TestHostStartupCreatesAndRecovers: -create seeds projects idempotently
// (a second boot over the same root must not fail on "already exists").
func TestHostStartupCreatesAndRecovers(t *testing.T) {
	root := t.TempDir()
	for i := 0; i < 2; i++ {
		h, err := buildHost(root, "alpha,beta", "builtin:fig4", "test", -1,
			serve.Options{})
		if err != nil {
			t.Fatalf("boot %d: %v", i, err)
		}
		list, err := h.Projects().List()
		if err != nil {
			t.Fatal(err)
		}
		if len(list) != 2 {
			t.Fatalf("boot %d: %d projects, want 2", i, len(list))
		}
		if err := h.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
