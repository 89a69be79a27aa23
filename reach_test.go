package dlsys

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedKept names every declaration under internal/ that no program
// reaches and that stays anyway, with the test that needs it and why: as
// its oracle, as its input, or as its handle on live state (DESIGN.md,
// "Code only where a program reaches it").
var unreachedKept = map[string]string{
	// Oracles.
	"tensor.Transpose":                "oracle: the a·bᵀ and aᵀ·b reference in TestTransposedKernelsMatchReference, FuzzMatMulShapes and TestTransposeProperties",
	"tensor.AddRowVectorInPlace":      "oracle: the bias epilogue's reference in TestPureGoKernelsMatchAVX, FuzzMatMulShapes and nn's TestDenseForwardMatchesUnfusedPair",
	"(*tensor.Tensor32).ToFloat64":    "oracle: the float32 round trip in TestTensor32Conversions",
	"(*quant.HuffmanTable).Decode":    "oracle: the round trip for Encode in TestHuffmanRoundTrip and TestHuffmanRoundTripQuick",
	"(*quant.Linear).MaxError":        "oracle: the bound TestQuantizeLinearErrorBound and TestQuantizeLinearPropertyQuick check",
	"(*modelstore.Store).Get":         "oracle: the round trip for Put in TestPutGetRoundTripWithinQuantError",
	"modelstore.decodeRow":            "oracle: Store.Get's row decoder",
	"db.NewEquiWidth":                 "oracle: the baseline TestEquiDepthBeatsEquiWidthOnSkew must beat",
	"(*nn.SoftmaxCrossEntropy).Probs": "oracle: the head's probabilities in TestFusedHeadMatchesUnfusedHead",

	// Inputs and entry points.
	"data.TwoMoons":            "input: TestMLPSolvesTwoMoons",
	"data.Regression":          "input: TestMLPRegressionWithMSE",
	"data.RegressionConfig":    "input: data.Regression's config",
	"nn.NewSigmoid":            "input: TestSigmoidTanhGradients, TestTrainBuffersBitIdenticalToFreshAllocation and quant's TestCompileF32MLPRejectsUnsupportedLayers",
	"tensor.MatMulInto":        "input: the a·b member of TestIntoKernelsReuseDirtyDst and TestIntoKernelsAllocateNothing",
	"(*sim.Kernel).RunUntil":   "input: drives the kernel in livedb's TestSnapshotCorruptionFallsBackDownTheRing and sim's TestKernelMatchesSortOracle",
	"obs.MemorySink":           "input: the fake sink TestNilSafety flushes into",
	"(*obs.MemorySink).Export": "input: the fake sink TestNilSafety flushes into",

	// Handles on live state.
	"(*checkpoint.Store).Cap":          "handle: TestStoreRingEviction",
	"(*checkpoint.Store).Evicted":      "handle: TestStoreRingEviction",
	"(*checkpoint.Store).EvictedBytes": "handle: TestStoreRingReleasesEvictedPayloads",
	"(*checkpoint.Store).Latest":       "handle: TestStoreRingEviction and TestStoreRetentionBound",
	"(*fault.Injector).ByzantineFires": "handle: TestByzantineWindow and TestWindowsMatchFlatRates",
	"(*fault.Injector).LinkCut":        "handle: TestPartitionStableCutAndDuration",
	"(*fault.Injector).Schedule":       "handle: TestSameSeedSameSchedule and TestDifferentSeedsDifferentSchedules",
	"fault.Event":                      "handle: the element type of Injector.Schedule",
	"(*guard.Trainer).BaseLR":          "handle: TestLossSpikeBacksOffLR and TestRollbackRestoresBitIdenticalParams",
	"(*guard.Trainer).Snapshot":        "handle: TestRollbackRestoresBitIdenticalParams",
	"(*livedb.Ledger).First":           "handle: TestCorruptedInsertRollbackAndRecovery and TestFPRTriggerFiresBeforeDoubleTarget",
	"(*livedb.Engine).QuarantineLen":   "handle: TestCorruptedInsertRollbackAndRecovery",
	"(*robust.Ledger).Events":          "handle: TestReputationProbationExit and TestLedgerFingerprintReplays",
	"(*modelstore.Store).Entries":      "handle: TestDedupAcrossModelVersions",
	"(*inspect.Activations).Layers":    "handle: TestRecordCapturesActivationLayers",
	"(*serve.breaker).State":           "handle: TestBreakerBoundaries and the other breaker tests",
}

// stdInterfaceMethods are the methods of the standard library's interfaces
// that the runtime, fmt, sort and container/heap call on a program's
// behalf: error, fmt.Stringer, sort.Interface and heap.Interface.
var stdInterfaceMethods = []string{"Error", "String", "Len", "Less", "Swap", "Push", "Pop"}

// TestEveryDeclarationReachesAProgram type-checks both modules and follows
// references out from the programs: every declaration in the non-test files
// of the root package, cmd/dlsys, examples/* and bench, plus every init
// function and package-level var under internal/. Go's internal/ rule lets
// no code outside this repository import internal/, so a declaration there
// that no program reaches runs only in tests. The test fails on any such
// declaration that unreachedKept does not name, and on any name in
// unreachedKept that is gone or that a program now reaches.
func TestEveryDeclarationReachesAProgram(t *testing.T) {
	s := newReachScan()
	dirs := []string{".", "cmd/dlsys", "bench"}
	examples, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	dirs = append(dirs, examples...)
	internal, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range internal {
		if e.IsDir() {
			dirs = append(dirs, "internal/"+e.Name())
		}
	}
	for _, dir := range dirs {
		path := "dlsys"
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		if _, err := s.load(path); err != nil {
			t.Fatal(err)
		}
	}

	unreached, declared := s.unreached()
	var missing []string
	for _, name := range unreached {
		if _, ok := unreachedKept[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d declarations under internal/ reach no program; delete them, or name each in unreachedKept with the test that needs it:\n\t%s",
			len(missing), strings.Join(missing, "\n\t"))
	}
	still := make(map[string]bool, len(unreached))
	for _, name := range unreached {
		still[name] = true
	}
	var stale []string
	for name := range unreachedKept {
		if !still[name] {
			if declared[name] {
				stale = append(stale, name+" (a program reaches it)")
			} else {
				stale = append(stale, name+" (no such declaration)")
			}
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("unreachedKept names %d declarations that are not unreached; take them out:\n\t%s",
			len(stale), strings.Join(stale, "\n\t"))
	}
}

// reachScan type-checks the repository's packages from source and the
// standard library from export data.
type reachScan struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*scanPkg
}

type scanPkg struct {
	path  string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

func newReachScan() *reachScan {
	fset := token.NewFileSet()
	return &reachScan{fset: fset, std: importer.ForCompiler(fset, "gc", nil), pkgs: map[string]*scanPkg{}}
}

// Import maps dlsys/... to its directory under the repository root, which
// also covers the bench module (dlsys/bench), and every other path to the
// standard library.
func (s *reachScan) Import(path string) (*types.Package, error) {
	if path != "dlsys" && !strings.HasPrefix(path, "dlsys/") {
		return s.std.Import(path)
	}
	p, err := s.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (s *reachScan) load(path string) (*scanPkg, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	dir := "."
	if rel := strings.TrimPrefix(path, "dlsys/"); rel != path {
		dir = filepath.FromSlash(rel)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &scanPkg{path: path, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: s}
	if p.types, err = conf.Check(path, s.fset, p.files, p.info); err != nil {
		return nil, err
	}
	s.pkgs[path] = p
	return p, nil
}

// decl is one package-level declaration: a function, a method, a type, or
// one name of a const or var spec, with the syntax its references come from.
type decl struct {
	obj  types.Object // nil for init functions and blank vars
	pkg  *scanPkg
	node ast.Node
	recv *types.TypeName // a method's receiver type
}

// unreached returns the names of the declarations under internal/ that no
// program reaches, sorted, and the names of all declarations there. A
// declaration is reached when a reached declaration names it; a const or
// var also reaches its named type. A method is also reached when its
// receiver type is reached and a reached interface, or one in
// stdInterfaceMethods, declares its name: a call through an interface
// names only the interface's method.
func (s *reachScan) unreached() (names []string, declared map[string]bool) {
	var all []*decl
	byObj := map[types.Object]*decl{}
	add := func(d *decl) {
		all = append(all, d)
		if d.obj != nil && d.obj.Name() != "_" {
			byObj[d.obj] = d
		}
	}
	for _, p := range s.pkgs {
		for _, f := range p.files {
			for _, n := range f.Decls {
				switch n := n.(type) {
				case *ast.FuncDecl:
					d := &decl{pkg: p, node: n}
					if !(n.Recv == nil && n.Name.Name == "init") {
						d.obj = p.info.Defs[n.Name]
					}
					if n.Recv != nil {
						d.recv = recvType(d.obj)
					}
					add(d)
				case *ast.GenDecl:
					for _, spec := range n.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(&decl{obj: p.info.Defs[spec.Name], pkg: p, node: spec})
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								add(&decl{obj: p.info.Defs[id], pkg: p, node: spec})
							}
						}
					}
				}
			}
		}
	}

	reached := map[*decl]bool{}
	ifaceNames := map[string]bool{}
	for _, m := range stdInterfaceMethods {
		ifaceNames[m] = true
	}
	var queue []*decl
	mark := func(d *decl) {
		if !reached[d] {
			reached[d] = true
			queue = append(queue, d)
		}
	}
	for _, d := range all {
		_, isVar := d.obj.(*types.Var)
		if !strings.HasPrefix(d.pkg.path, "dlsys/internal/") || d.obj == nil || isVar {
			mark(d)
		}
	}
	for len(queue) > 0 {
		for len(queue) > 0 {
			d := queue[0]
			queue = queue[1:]
			if tn, ok := d.obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						ifaceNames[it.Method(i).Name()] = true
					}
				}
			}
			if d.obj != nil {
				if n, ok := d.obj.Type().(*types.Named); ok {
					if td := byObj[n.Obj()]; td != nil {
						mark(td)
					}
				}
			}
			ast.Inspect(d.node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if td := byObj[origin(d.pkg.info.Uses[id])]; td != nil {
						mark(td)
					}
				}
				return true
			})
		}
		for _, d := range all {
			if !reached[d] && d.recv != nil && ifaceNames[d.obj.Name()] && reached[byObj[d.recv]] {
				mark(d)
			}
		}
	}

	declared = map[string]bool{}
	for _, d := range all {
		if d.obj == nil || d.obj.Name() == "_" || !strings.HasPrefix(d.pkg.path, "dlsys/internal/") {
			continue
		}
		name := declName(d.obj)
		declared[name] = true
		if !reached[d] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, declared
}

// origin maps a use of an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

func recvType(obj types.Object) *types.TypeName {
	t := obj.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// declName names a declaration the way go/types does, relative to
// dlsys/internal/: tensor.Transpose, (*quant.HuffmanTable).Decode.
func declName(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		return strings.ReplaceAll(f.FullName(), "dlsys/internal/", "")
	}
	return strings.TrimPrefix(obj.Pkg().Path(), "dlsys/internal/") + "." + obj.Name()
}
