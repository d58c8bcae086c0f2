package regcast_test

import (
	"testing"

	"regcast"
)

// FuzzParseTopologySpec feeds arbitrary text to the -topology spec
// parser. Parsing, the SpecNodeCount query and Build must return errors,
// never panic; a spec that declares no node count must fail to Build,
// and one small enough to build quickly must build exactly the node
// count it declared.
func FuzzParseTopologySpec(f *testing.F) {
	f.Add("regular:n=64,d=4")
	f.Add("hypercube:dim=6,dense=true")
	f.Add("torus:rows=4,cols=8")
	f.Add("gnp:n=32,p=0.2")
	f.Add("overlay:n=32,d=4,join=0.1,leave=0.1,mix=2")
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := regcast.ParseTopologySpec(input)
		if err != nil {
			return
		}
		n := regcast.SpecNodeCount(spec)
		if n < 1 {
			if _, err := spec.Build(0, regcast.NewRand(1)); err == nil {
				t.Fatalf("%q: SpecNodeCount %d but Build succeeded", input, n)
			}
			return
		}
		if n <= 4096 {
			topo, err := spec.Build(0, regcast.NewRand(1))
			if err == nil && topo.NumNodes() != n {
				t.Fatalf("%q: built %d nodes, SpecNodeCount declared %d", input, topo.NumNodes(), n)
			}
		}
	})
}
