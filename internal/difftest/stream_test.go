package difftest

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// TestRandomParamsStreamStable pins what the first 64 draws of seed 1
// yield and how many random values they consume: bench/zipf.go builds
// the icid-zipf model texts and engine choices from one rng shared with
// RandomParams, and icifuzz -seed N campaigns replay the same stream. A
// change to either digest reshuffles both, so it must be deliberate.
func TestRandomParamsStreamStable(t *testing.T) {
	const (
		wantModels = "bd7b7f2d4caf894561e5d733cf0c75dd227297b66aeee56dd065d2f80215dfef"
		wantNext   = int64(5214933404516381671)
	)
	rng := rand.New(rand.NewSource(1))
	h := sha256.New()
	for i := 0; i < 64; i++ {
		p := RandomParams(rng)
		mo, err := BuildModel(p)
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		h.Write([]byte(mo.Format()))
		h.Write([]byte{0})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantModels {
		t.Errorf("model texts of the first 64 draws hash to %s, want %s", got, wantModels)
	}
	if got := rng.Int63(); got != wantNext {
		t.Errorf("next Int63 after 64 draws = %d, want %d", got, wantNext)
	}
}
