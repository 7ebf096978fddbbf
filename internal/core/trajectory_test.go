// Trajectory pins of the core specs. The reference loop
// (reference_test.go) steps the same rule on both of its sides, so an
// edit to a rule moves both and goes unseen there; these digests were
// recorded from the specs before their rules were merged and fix each
// run's every state, in the encoding engine snapshots store.
package core_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"popcount/internal/core"
	"popcount/internal/sim"
)

// trajectoryCases are the reference loop's six cases: the four core
// protocols, the stable ones with and without the fault flag.
var trajectoryCases = []struct {
	name string
	spec func(n int) *sim.Spec
}{
	{"approximate", func(n int) *sim.Spec { return core.NewApproximateSpec(core.Config{N: n}).Spec }},
	{"exact", func(n int) *sim.Spec { return core.NewCountExactSpec(core.Config{N: n}).Spec }},
	{"stable-approximate", func(n int) *sim.Spec { return core.NewStableApproximateSpec(core.Config{N: n}, false).Spec }},
	{"stable-approximate fault", func(n int) *sim.Spec { return core.NewStableApproximateSpec(core.Config{N: n}, true).Spec }},
	{"stable-exact", func(n int) *sim.Spec { return core.NewStableCountExactSpec(core.Config{N: n}, false).Spec }},
	{"stable-exact fault", func(n int) *sim.Spec { return core.NewStableCountExactSpec(core.Config{N: n}, true).Spec }},
}

// trajectoryDigest runs spec's agent form for 3000·n interactions at
// seed and folds every agent's EncodeState bytes, each prefixed by its
// length, into one FNV-64a digest after every 4n-interaction chunk.
func trajectoryDigest(t *testing.T, spec *sim.Spec, seed uint64) uint64 {
	t.Helper()
	agent := sim.NewSpecAgent(spec)
	e, err := sim.NewEngine(agent, sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	n := int64(spec.N)
	h := fnv.New64a()
	var l [2]byte
	for done := int64(0); done < 3000*n; done += 4 * n {
		e.Step(4 * n)
		for i := 0; i < agent.N(); i++ {
			b := spec.EncodeState(agent.Code(i))
			binary.LittleEndian.PutUint16(l[:], uint16(len(b)))
			h.Write(l[:])
			h.Write(b)
		}
	}
	return h.Sum64()
}

// TestCoreTrajectoryPins checks each case at n ∈ {2, 3, 7, 16, 64} and
// seeds {1, 2} (row order) against the digests recorded before the
// rules were merged.
func TestCoreTrajectoryPins(t *testing.T) {
	ns := []int{2, 3, 7, 16, 64}
	seeds := []uint64{1, 2}
	pins := map[string][10]uint64{
		"approximate": {0xae0713fe35900644, 0xa5b6fe43a6421c9a, 0x30ef6915dff3db07, 0x5a64987acb94092c, 0x8bc0e862b64dff68,
			0x258f0b3261c0adeb, 0xdf802a0ea758926b, 0x4dc1cf08af368334, 0xbfcff0504eb4037f, 0x9f83fc43cbb31547},
		"exact": {0x352b3498df46526d, 0xba977193ca60cb80, 0x26065e7e1b2e1d27, 0x2c0f2ff33f256d11, 0x6479781c615d9b1c,
			0x0e0a24ccccf05bed, 0x79d1cd3898a97348, 0xbfcb04b33a81a51c, 0x55cccfa61a5d4496, 0xcb760f5551d98cef},
		"stable-approximate": {0xcf4099f47ae1b693, 0x78a28d7798454b0b, 0xa0d7d3951e7b6cb4, 0x95ad962fb61173e0, 0xa397ecbfa192cd7b,
			0xe6ef7174ac7ef79a, 0x786bd3fd4fd019fb, 0x9b6383bb83db07d0, 0x99f05727c363b515, 0x5aa9a9330d9909c8},
		"stable-approximate fault": {0xcf4099f47ae1b693, 0x78a28d7798454b0b, 0x8ea0df91c534c4e8, 0x4bef03818617f831, 0x9c197c99154e18c1,
			0x2bf9651c19256479, 0x37df07dbce369746, 0x3173fd5360eb74b4, 0xd90e02e496a3a501, 0x6b307f8447783fb8},
		"stable-exact": {0x7ec4ac5177d5d847, 0xe3e8bb9850a0aa84, 0x6939cc0e2358f3af, 0x0a7fa8868d366511, 0x9c627351073a4fcd,
			0xb54347d90776e399, 0xd6276c5ccd3d9fc3, 0xed5555796bb1311c, 0xde1395333c5925d8, 0x0ccb0a54bf6d8841},
		"stable-exact fault": {0xc6f15212df3e2dd5, 0x4597eb7b50107586, 0x661067b7b6bc7387, 0x4b04f68c388890f1, 0xae5b2960dd7d72a3,
			0x56d8a7533ccc2739, 0x63c99b3d217bd871, 0x87b625dcf23bb7e5, 0x5c2ef4e900ab204d, 0xbe8976c599b930f0},
	}
	for _, c := range trajectoryCases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			want := pins[c.name]
			for i, n := range ns {
				for j, seed := range seeds {
					if got := trajectoryDigest(t, c.spec(n), seed); got != want[2*i+j] {
						t.Errorf("n=%d seed=%d: digest %#016x, pinned %#016x", n, seed, got, want[2*i+j])
					}
				}
			}
		})
	}
}
