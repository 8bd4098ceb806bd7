package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"hotgauge/internal/sim"
)

const goldenAddressesFile = "testdata/golden_addresses.json"

// goldenAddress pins one spec's content address and the digest of the
// result payload the daemon would serve for it.
type goldenAddress struct {
	Name          string     `json:"name"`
	Spec          ConfigSpec `json:"spec"`
	ConfigHash    string     `json:"config_hash"`
	PayloadSHA256 string     `json:"payload_sha256"`
}

// TestGoldenAddresses pins Config.Hash and the newRunView payload bytes
// of a corpus of specs spanning nodes, warmups, solvers, stacks, layer
// overrides, mitigation knobs, record options and triage. A moved
// address would make the cache, the durable store and the cluster serve
// stale bytes under an old key (or miss every warm entry), so any
// change here must be deliberate. On a mismatch the test prints the
// full replacement file; there is no regeneration flag.
//
// Hashes are checked on every architecture. Payload digests are checked
// on amd64 only: the Go compiler may fuse multiply-adds on other
// architectures (arm64, ppc64le, s390x, riscv64), which legitimately
// perturbs the last bits of the simulated temperatures.
func TestGoldenAddresses(t *testing.T) {
	raw, err := os.ReadFile(goldenAddressesFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenAddress
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("golden corpus is empty")
	}
	checkPayload := runtime.GOARCH == "amd64"

	got := make([]goldenAddress, len(want))
	mismatch := false
	for i, w := range want {
		g := w
		cfg, err := w.Spec.Config()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if g.ConfigHash, err = cfg.Hash(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		payload, err := json.Marshal(newRunView(w.Spec, g.ConfigHash, res))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		sum := sha256.Sum256(payload)
		g.PayloadSHA256 = hex.EncodeToString(sum[:])
		if !checkPayload {
			g.PayloadSHA256 = w.PayloadSHA256
		}
		if g.ConfigHash != w.ConfigHash {
			t.Errorf("%s: config hash %s, golden %s", w.Name, g.ConfigHash, w.ConfigHash)
			mismatch = true
		}
		if g.PayloadSHA256 != w.PayloadSHA256 {
			t.Errorf("%s: payload sha256 %s, golden %s", w.Name, g.PayloadSHA256, w.PayloadSHA256)
			mismatch = true
		}
		got[i] = g
	}
	if mismatch {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		t.Logf("replacement %s:\n%s", goldenAddressesFile, buf.String())
	}
}
