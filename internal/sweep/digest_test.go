package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"

	"dhc"
)

// recipeDigests pins the CSR bytes (Adjacency offsets, then arena, both
// little-endian) that every family builds at two recipes each, plus the
// vertex-deleted hypercube. Generator changes that claim to keep output
// byte-identical (hoisted constants, reordered loops) must leave every
// digest here unchanged.
var recipeDigests = []struct{ recipe, sha256 string }{
	{"gnp/n=64/param=3/delta=1/gs=5", "2b12d19f1f64eff16a760b5a76907a54811d3e81eb39b488753b5ebc32f96b8e"},
	{"gnp/n=4096/param=8/delta=0.5/gs=7", "0dacfd5859c6055c4123fecfeaeb2f6fa5a4bd37825fcb03593059ef9cbc2d0a"},
	{"gnm/n=64/param=3/delta=1/gs=5", "fc7238add1310c65eca698a9e74d6a52dd28611232febbfff1738e8ca2fe5269"},
	{"gnm/n=1000/param=4/delta=1/gs=9", "0e591df82130c2669ea1b35667c2e7fb133663c35d80cbaf84d1a258e819f629"},
	{"regular/n=64/param=3/delta=1/gs=5", "45376acaa4d6cdb960e270573a0dc738e0de6490c2a55fb04b9109c0371b85bd"},
	{"regular/n=1000/param=6/delta=1/gs=9", "01cf7b39153924572b7b31fe7ebeb50b1d69421234c1228478627592697d1d76"},
	{"powerlaw/n=64/param=3/delta=1/gs=5", "8402027c83868cae2e0ffff64cf47adfd55c5e0759f89d69c5d4e65e44711d65"},
	{"powerlaw/n=4096/param=8/delta=1/gs=7", "b3cffc426ae16e5c499c90bdaa93b05ba1c5e2fe0b1f8684c73b78bf1c25c972"},
	{"geometric/n=64/param=3/delta=1/gs=5", "2695877972565f0112e98d36c89a150e4709d0e492c4dc21e19933f04dd67e1c"},
	{"geometric/n=2000/param=2/delta=1/gs=7", "1e17e3fa6215be5d6c4919a0d31e108edfe8d576a86a3b6dc6f1a6f0e6831189"},
	{"sbm/n=64/param=3/delta=1/gs=5", "377e86cf247d05e892583510466f765a9184abb3f20a7e3b94e3cb1a5a60c215"},
	{"sbm/n=4096/param=8/delta=1/gs=7", "0bda15ed27a9d494088866fea9c76e2f3abb536871af06c0e7361ac0b0a62806"},
	{"hypercube/n=64/param=3/delta=1/gs=5", "a06bb3aac0895e3f2ec3608889c08927da84b698dadd898eebc39d64cfe07a16"},
	{"hypercube/n=128/param=3/delta=1/gs=5", "ae207844652d16adad51c20007ba191fd271fd027bb47d8fff4ed4932cf23a6b"},
	{"hypercube/n=63/param=3/delta=1/gs=5", "1d01fbb9bb209a9f937714c684a9c008cd7eb71bbde97b6220e59e87d00112d4"},
	{"torus/n=64/param=3/delta=1/gs=5", "8fe8176cfc1fe395345326891eff0ac61e89475b1cba8bb706b70fa00b1cd66b"},
	{"torus/n=100/param=3/delta=1/gs=5", "3801351dc47a3297633a8d7f477d41499656de43aa780243b2aa7cacccdf414f"},
}

// TestRecipeDigests builds every pinned recipe and compares its CSR digest,
// and checks that the table covers every family.
func TestRecipeDigests(t *testing.T) {
	covered := map[string]int{}
	for _, tc := range recipeDigests {
		g, err := buildRecipe(tc.recipe)
		if err != nil {
			t.Fatalf("%s: %v", tc.recipe, err)
		}
		if got := csrDigest(g); got != tc.sha256 {
			t.Errorf("%s: CSR digest %s, want %s", tc.recipe, got, tc.sha256)
		}
		covered[strings.SplitN(tc.recipe, "/", 2)[0]]++
	}
	for _, name := range FamilyNames() {
		if covered[name] < 2 {
			t.Errorf("family %s pinned at %d recipes, want >= 2", name, covered[name])
		}
	}
}

// buildRecipe builds the graph a recipe text names.
func buildRecipe(text string) (*dhc.Graph, error) {
	r, err := ParseRecipe(text)
	if err != nil {
		return nil, err
	}
	return r.Build()
}

// csrDigest is the SHA-256 of g's CSR offsets followed by its arena.
func csrDigest(g *dhc.Graph) string {
	off, arena := g.Adjacency()
	buf := make([]byte, 0, 4*(len(off)+len(arena)))
	for _, o := range off {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o))
	}
	for _, v := range arena {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
