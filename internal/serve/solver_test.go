package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"hotgauge/internal/thermal"
)

// specHash materializes and hashes a spec the way handleSubmit does.
func specHash(t *testing.T, spec ConfigSpec) string {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	h, err := cfg.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSpecSolverMaterialization(t *testing.T) {
	base := ConfigSpec{Workload: "gcc", Steps: 2}

	adi := base
	adi.Solver = "adi"
	adi.SolverTol = 0.05
	cfg, err := adi.Config()
	if err != nil {
		t.Fatal(err)
	}
	s, ok := cfg.Solver.(*thermal.ADI)
	if !ok {
		t.Fatalf("solver %T, want *thermal.ADI", cfg.Solver)
	}
	if s.ErrTol != 0.05 {
		t.Fatalf("ADI ErrTol = %v, want solver_tol 0.05", s.ErrTol)
	}

	bad := base
	bad.Solver = "spectral"
	if _, err := bad.Config(); err == nil {
		t.Fatal("unknown solver name materialized without error")
	}

	// "" and "adi" are the same run and must share a content address;
	// the explicit oracle is a different run.
	plain := base
	plain.Solver = "adi"
	if got, want := specHash(t, plain), specHash(t, base); got != want {
		t.Fatalf("adi hash %s != unset-solver hash %s", got, want)
	}
	exp := base
	exp.Solver = "explicit"
	if specHash(t, exp) == specHash(t, base) {
		t.Fatal("explicit spec hashes like the unset (ADI) default")
	}
}

// TestDefaultSolverFolding proves the daemon's -solver default is folded
// into unset specs before hashing: the dispatched hash matches an
// explicit spec naming that solver, and specs that pin a solver are left
// alone — so cache keys and cluster shards depend only on the resolved
// spec, never on ambient daemon settings.
func TestDefaultSolverFolding(t *testing.T) {
	_, ts := newTestServer(t, Options{DefaultSolver: "explicit"})

	unset := ConfigSpec{Workload: "gcc", Steps: 2}
	got := submit(t, ts, unset)

	exp := unset
	exp.Solver = "explicit"
	if want := specHash(t, exp); got.Hashes[0] != want {
		t.Fatalf("folded hash %s, want the pinned explicit spec's %s", got.Hashes[0], want)
	}

	// A pinned solver wins over the daemon default.
	pinned := unset
	pinned.Solver = "adi"
	got = submit(t, ts, pinned)
	if want := specHash(t, pinned); got.Hashes[0] != want {
		t.Fatalf("pinned-solver hash %s, want %s", got.Hashes[0], want)
	}
	if got.Hashes[0] == specHash(t, exp) {
		t.Fatal("daemon default overrode an explicitly pinned solver")
	}
}

// TestSubmitRejectsUnknownSolver covers a name that never existed and
// "implicit", which older daemons accepted: both get a 400 that names
// the valid solvers.
func TestSubmitRejectsUnknownSolver(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, name := range []string{"spectral", "implicit"} {
		resp := postJobs(t, ts, ConfigSpec{Workload: "gcc", Steps: 2, Solver: name})
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if !strings.Contains(string(body), "want explicit or adi") {
			t.Fatalf("%s: error %q does not name the valid solvers", name, body)
		}
	}
}

func TestNewRejectsUnknownDefaultSolver(t *testing.T) {
	if _, err := New(Options{DefaultSolver: "spectral"}); err == nil {
		t.Fatal("New accepted an unknown default solver")
	}
}
