package modelgen

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/ipres"
	"repro/internal/manifest"
	"repro/internal/repo"
	"repro/internal/roa"
	"repro/internal/rp"
)

// This file scales world generation to Internet-scale deployments (10k, 100k,
// 1M ROAs) that cannot be built — or validated — whole in RAM.
//
// Three properties distinguish scaled worlds from the in-memory Synthetic
// builder:
//
//   - Streaming: the hierarchy is planned first as a few integer arrays, then
//     publication points are generated depth-first and written to disk as
//     pack files ("<module>.pp", internal/repo pack format) one at a time.
//     Peak generator memory is the plan plus one in-flight module per worker,
//     not the world.
//
//   - Determinism: all keys come from cert.DeterministicKeyPair and all
//     signatures are derandomized, so the same seed yields byte-identical
//     pack files — generation is verifiable and cacheable.
//
//   - Realistic shape: CA fan-out follows a recursive random tree (expected
//     depth grows logarithmically, like real delegation chains) and ROAs per
//     CA follow a Zipf distribution (a few huge ISPs, a long tail of small
//     ones), matching the skew observed in RPKI repositories rather than the
//     uniform fan-out of the small synthetic worlds.

// Scaling-tier sizes for the benchmark harness.
const (
	Tier10k  = 10_000
	Tier100k = 100_000
	Tier1M   = 1_000_000
)

// roasPerCA is the average number of ROAs per certificate authority; the
// 2013-era production RPKI averaged single-digit ROAs per CA.
const roasPerCA = 8

// maxCADepth clamps delegation-chain length below the relying party's
// depth bound (32 points, rp's maxDepth), leaving headroom for the trust
// anchor itself.
const maxCADepth = 26

// scaleHost is the synthetic host all scaled-world modules live on.
const scaleHost = "scale.example:8873"

// worldMetaFile is the metadata file written next to the pack files.
const worldMetaFile = "world.json"

// ScaleConfig sizes a streamed, disk-backed world.
type ScaleConfig struct {
	// Seed makes generation deterministic; the same seed yields
	// byte-identical pack files.
	Seed int64
	// ROAs is the total number of ROAs (use the Tier constants).
	ROAs int
	// Dir is the output directory for pack files and world.json.
	Dir string
	// Workers bounds generation parallelism (default GOMAXPROCS).
	// Parallelism does not affect the generated bytes.
	Workers int
	// Epoch is the fixed generation time (default: the HotNets '13 epoch
	// shared with Synthetic). All validity windows are anchored here.
	Epoch time.Time
}

// ScaleMeta is the persisted description of a generated world.
type ScaleMeta struct {
	Seed    int64     `json:"seed"`
	ROAs    int       `json:"roas"`
	CAs     int       `json:"cas"`
	Modules int       `json:"modules"`
	Depth   int       `json:"max_depth"`
	Host    string    `json:"host"`
	Epoch   time.Time `json:"epoch"`
}

// ScaledWorld is a handle to a generated on-disk world.
type ScaledWorld struct {
	// Dir holds the pack files and metadata.
	Dir string
	// Meta describes the world.
	Meta ScaleMeta
}

// defaultEpoch returns the shared HotNets '13 generation epoch.
func defaultEpoch() time.Time {
	return time.Date(2013, 11, 21, 0, 0, 0, 0, time.UTC)
}

// Clock returns the world's fixed time source, for relying parties.
func (w *ScaledWorld) Clock() func() time.Time {
	epoch := w.Meta.Epoch
	return func() time.Time { return epoch }
}

// Fetcher returns a fetcher serving the world's publication points, reading
// one module's pack file per fetch.
func (w *ScaledWorld) Fetcher() repo.DirFetcher {
	return repo.DirFetcher{Root: w.Dir}
}

// Anchor reads the trust-anchor certificate back from the world's root
// module and returns the relying-party seed.
func (w *ScaledWorld) Anchor() (rp.TrustAnchor, error) {
	files, err := w.Fetcher().FetchAll(nil, repo.URI{Host: w.Meta.Host, Module: "ta"})
	if err != nil {
		return rp.TrustAnchor{}, err
	}
	der, ok := files["ta.cer"]
	if !ok {
		return rp.TrustAnchor{}, fmt.Errorf("modelgen: world at %s has no ta.cer", w.Dir)
	}
	return rp.TrustAnchor{
		CertDER: append([]byte(nil), der...),
		URI:     repo.URI{Host: w.Meta.Host, Module: "ta"},
	}, nil
}

// OpenScaled opens a previously generated world directory.
func OpenScaled(dir string) (*ScaledWorld, error) {
	raw, err := os.ReadFile(filepath.Join(dir, worldMetaFile))
	if err != nil {
		return nil, fmt.Errorf("modelgen: opening world: %w", err)
	}
	var meta ScaleMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("modelgen: parsing %s: %w", worldMetaFile, err)
	}
	return &ScaledWorld{Dir: dir, Meta: meta}, nil
}

// scalePlan is the integer skeleton of the hierarchy, computed up front from
// the seed alone. Node 0 is the trust anchor; nodes 1..CAs are certificate
// authorities. Parents always precede children, so a single ascending pass
// (or a DFS) visits issuers before subjects.
type scalePlan struct {
	parent    []int32   // parent node (node 0's parent is -1)
	depth     []int16   // delegation depth (TA = 0)
	childSlot []int32   // index among the parent's children
	children  [][]int32 // adjacency, in creation order
	roas      []int32   // ROAs issued by this node (0 for the TA)
	prefAddr  []uint32  // resource prefix base address
	prefLen   []int8    // resource prefix length
}

// planScale lays out the hierarchy: a recursive random tree over the CAs
// (each new CA delegates from a uniformly random earlier CA, giving skewed
// fan-out and logarithmic depth), Zipf-distributed ROA counts adjusted to the
// exact total, and arithmetic prefix carving (each child takes a slot inside
// its parent's prefix; slots wrap around, and sibling overlap is legal
// because validation only checks parent coverage).
func planScale(seed int64, totalROAs int) *scalePlan {
	cas := totalROAs / roasPerCA
	if cas < 1 {
		cas = 1
	}
	n := cas + 1 // + trust anchor
	p := &scalePlan{
		parent:    make([]int32, n),
		depth:     make([]int16, n),
		childSlot: make([]int32, n),
		children:  make([][]int32, n),
		roas:      make([]int32, n),
		prefAddr:  make([]uint32, n),
		prefLen:   make([]int8, n),
	}
	p.parent[0] = -1
	rng := rand.New(rand.NewSource(seed))

	// Tree shape. A 2% chance of attaching directly under the trust anchor
	// keeps the number of top-level registries small but plural.
	for i := 1; i < n; i++ {
		par := int32(0)
		if i > 1 && rng.Float64() >= 0.02 {
			par = 1 + int32(rng.Intn(i-1))
		}
		for p.depth[par] >= maxCADepth {
			par = p.parent[par]
		}
		p.parent[i] = par
		p.depth[i] = p.depth[par] + 1
		p.childSlot[i] = int32(len(p.children[par]))
		p.children[par] = append(p.children[par], int32(i))

		// Prefix carving: four more bits per level down to /24, then
		// children share the parent's /24 (full overlap, still covered).
		childLen := int8(24)
		if p.prefLen[par]+4 < 24 {
			childLen = p.prefLen[par] + 4
		}
		span := childLen - p.prefLen[par]
		slot := uint32(0)
		if span > 0 {
			slot = uint32(p.childSlot[i]) % (1 << uint(span))
		}
		p.prefAddr[i] = p.prefAddr[par] | slot<<(32-uint(childLen))
		p.prefLen[i] = childLen
	}

	// ROA counts: Zipf draws (heavy skew), then a round-robin adjustment to
	// land exactly on the requested total.
	zipf := rand.NewZipf(rng, 1.3, 1, roasPerCA*32)
	sum := 0
	for i := 1; i < n; i++ {
		c := int32(1 + zipf.Uint64())
		p.roas[i] = c
		sum += int(c)
	}
	for idx := 1; sum > totalROAs; idx = idx%cas + 1 {
		if p.roas[idx] > 0 {
			p.roas[idx]--
			sum--
		}
	}
	for idx := 1; sum < totalROAs; idx = idx%cas + 1 {
		p.roas[idx]++
		sum++
	}
	return p
}

// generator carries the shared inputs of a generation run.
type generator struct {
	cfg    ScaleConfig
	plan   *scalePlan
	now    time.Time
	eePool []*cert.KeyPair
}

// eePoolSize is the number of shared end-entity keys. EE keys carry no
// identity (each EE certificate is used once, for one signed object), so a
// small pool amortizes key derivation across millions of EEs.
const eePoolSize = 64

func nodeName(i int32) string {
	if i == 0 {
		return "ta"
	}
	return fmt.Sprintf("ca%d", i)
}

func (g *generator) nodeURI(i int32) repo.URI {
	return repo.URI{Host: scaleHost, Module: nodeName(i)}
}

// caKey derives node i's deterministic key pair.
func (g *generator) caKey(i int32) (*cert.KeyPair, error) {
	var seed [24]byte
	copy(seed[:8], "scale-ca")
	binary.BigEndian.PutUint64(seed[8:16], uint64(g.cfg.Seed))
	binary.BigEndian.PutUint64(seed[16:24], uint64(i))
	return cert.DeterministicKeyPair(seed[:])
}

func (g *generator) prefix(i int32) ipres.Prefix {
	return ipres.MustPrefixFrom(ipres.AddrFromUint32(g.plan.prefAddr[i]), int(g.plan.prefLen[i]))
}

// certURI is the publication URI of node i's own certificate (published in
// its issuer's module; the trust anchor publishes its own).
func (g *generator) certURI(i int32) string {
	issuer := g.plan.parent[i]
	if issuer < 0 {
		issuer = i
	}
	return g.nodeURI(issuer).ObjectURI(nodeName(i) + ".cer")
}

// genModule builds and writes node i's publication point: certificates for
// its children, its ROAs, its CRL, and its manifest. It returns the child
// certificates so the DFS can descend. The files map is released when the
// caller drops it — nothing from the module is retained globally.
func (g *generator) genModule(i int32, own *cert.ResourceCert, key *cert.KeyPair) ([]*cert.ResourceCert, error) {
	name := nodeName(i)
	uri := g.nodeURI(i)
	files := make(map[string][]byte, len(g.plan.children[i])+int(g.plan.roas[i])+3)
	serial := int64(1)
	if i == 0 {
		files["ta.cer"] = own.Raw
		serial = 2 // the self-signed anchor consumed serial 1
	}
	nextSerial := func() int64 { s := serial; serial++; return s }
	crldp := uri.ObjectURI(name + ".crl")
	aia := g.certURI(i)

	childCerts := make([]*cert.ResourceCert, 0, len(g.plan.children[i]))
	for _, c := range g.plan.children[i] {
		childKey, err := g.caKey(c)
		if err != nil {
			return nil, err
		}
		childName := nodeName(c)
		childURI := g.nodeURI(c)
		childCert, err := cert.Issue(cert.Template{
			Subject:   childName,
			Serial:    nextSerial(),
			NotBefore: g.now.Add(-time.Minute),
			NotAfter:  g.now.Add(365 * 24 * time.Hour),
			Resources: ipres.SetOfPrefixes(g.prefix(c)),
			CA:        true,
			SIA: cert.InfoAccess{
				CARepository: childURI.String() + "/",
				Manifest:     childURI.ObjectURI(childName + ".mft"),
			},
			CRLDistributionPoint: crldp,
			AIACAIssuers:         aia,
		}, own, key, childKey)
		if err != nil {
			return nil, fmt.Errorf("modelgen: issuing %s: %w", childName, err)
		}
		files[childName+".cer"] = childCert.Raw
		childCerts = append(childCerts, childCert)
	}

	caAddr, caLen := g.plan.prefAddr[i], int(g.plan.prefLen[i])
	asn := ipres.ASN(64496 + uint32(i))
	for j := int32(0); j < g.plan.roas[i]; j++ {
		roaLen := caLen + 6
		if roaLen > 32 {
			roaLen = 32
		}
		slot := uint32(j) % (1 << uint(roaLen-caLen))
		addr := caAddr | slot<<(32-uint(roaLen))
		maxLen := roaLen
		if (int32(i)+j)%2 == 0 && roaLen+2 <= 32 {
			maxLen = roaLen + 2
		}
		r, err := roa.New(asn, roa.Prefix{
			Prefix:    ipres.MustPrefixFrom(ipres.AddrFromUint32(addr), roaLen),
			MaxLength: maxLen,
		})
		if err != nil {
			return nil, err
		}
		fileName := fmt.Sprintf("%s-r%d.roa", name, j)
		eeKey := g.eePool[(int(i)+int(j))%eePoolSize]
		eeCert, err := cert.Issue(cert.Template{
			Subject:              fmt.Sprintf("%s-ee-%d", name, serial),
			Serial:               nextSerial(),
			NotBefore:            g.now.Add(-time.Minute),
			NotAfter:             g.now.Add(365 * 24 * time.Hour),
			Resources:            r.ResourceSet(),
			SIA:                  cert.InfoAccess{SignedObject: uri.ObjectURI(fileName)},
			CRLDistributionPoint: crldp,
			AIACAIssuers:         aia,
		}, own, key, eeKey)
		if err != nil {
			return nil, fmt.Errorf("modelgen: issuing EE for %s: %w", fileName, err)
		}
		signed, err := r.Sign(eeCert, eeKey)
		if err != nil {
			return nil, fmt.Errorf("modelgen: signing %s: %w", fileName, err)
		}
		files[fileName] = signed
	}

	crl, err := cert.IssueCRL(own, key, 1, nil, g.now, g.now.Add(24*time.Hour))
	if err != nil {
		return nil, fmt.Errorf("modelgen: %s CRL: %w", name, err)
	}
	files[name+".crl"] = crl.Raw

	m := manifest.New(1, g.now, g.now.Add(24*time.Hour), files)
	mftEEKey := g.eePool[int(i)%eePoolSize]
	mftEE, err := cert.Issue(cert.Template{
		Subject:              fmt.Sprintf("%s-mft-ee-1", name),
		Serial:               nextSerial(),
		NotBefore:            g.now.Add(-time.Minute),
		NotAfter:             g.now.Add(365 * 24 * time.Hour),
		InheritIP:            true,
		SIA:                  cert.InfoAccess{SignedObject: uri.ObjectURI(name + ".mft")},
		CRLDistributionPoint: crldp,
		AIACAIssuers:         aia,
	}, own, key, mftEEKey)
	if err != nil {
		return nil, fmt.Errorf("modelgen: %s manifest EE: %w", name, err)
	}
	signedMft, err := m.Sign(mftEE, mftEEKey)
	if err != nil {
		return nil, fmt.Errorf("modelgen: %s manifest: %w", name, err)
	}
	files[name+".mft"] = signedMft

	packName, err := repo.PackFileName(name)
	if err != nil {
		return nil, err
	}
	return childCerts, repo.WritePackFile(filepath.Join(g.cfg.Dir, packName), files)
}

// genSubtree generates every module in the subtree rooted at node i
// (depth-first, iterative).
func (g *generator) genSubtree(i int32, own *cert.ResourceCert) error {
	type item struct {
		node int32
		rc   *cert.ResourceCert
	}
	stack := []item{{i, own}}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		key, err := g.caKey(it.node)
		if err != nil {
			return err
		}
		childCerts, err := g.genModule(it.node, it.rc, key)
		if err != nil {
			return err
		}
		for k, c := range g.plan.children[it.node] {
			stack = append(stack, item{c, childCerts[k]})
		}
	}
	return nil
}

// GenerateScaled generates a seeded world of cfg.ROAs ROAs under cfg.Dir,
// streaming each publication point to disk as it is built. The same
// (Seed, ROAs) always produces byte-identical pack files, regardless of
// Workers.
func GenerateScaled(cfg ScaleConfig) (*ScaledWorld, error) {
	if cfg.ROAs <= 0 {
		return nil, fmt.Errorf("modelgen: ROAs must be positive")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("modelgen: Dir required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Epoch.IsZero() {
		cfg.Epoch = defaultEpoch()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("modelgen: %w", err)
	}

	plan := planScale(cfg.Seed, cfg.ROAs)
	g := &generator{cfg: cfg, plan: plan, now: cfg.Epoch}
	g.eePool = make([]*cert.KeyPair, eePoolSize)
	for j := range g.eePool {
		var seed [24]byte
		copy(seed[:8], "scale-ee")
		binary.BigEndian.PutUint64(seed[8:16], uint64(cfg.Seed))
		binary.BigEndian.PutUint64(seed[16:24], uint64(j))
		kp, err := cert.DeterministicKeyPair(seed[:])
		if err != nil {
			return nil, err
		}
		g.eePool[j] = kp
	}

	// Self-signed trust anchor, then its module (which issues the top-level
	// CA certificates), then the top-level subtrees in parallel. Module
	// contents depend only on the plan and the seed, so the parallel
	// schedule cannot affect the bytes.
	taKey, err := g.caKey(0)
	if err != nil {
		return nil, err
	}
	taURI := g.nodeURI(0)
	taCert, err := cert.Issue(cert.Template{
		Subject:   "ta",
		Serial:    1,
		NotBefore: cfg.Epoch.Add(-time.Minute),
		NotAfter:  cfg.Epoch.Add(365 * 24 * time.Hour),
		Resources: ipres.MustParseSet("0.0.0.0/0"),
		CA:        true,
		SIA: cert.InfoAccess{
			CARepository: taURI.String() + "/",
			Manifest:     taURI.ObjectURI("ta.mft"),
		},
	}, nil, taKey, taKey)
	if err != nil {
		return nil, fmt.Errorf("modelgen: trust anchor: %w", err)
	}
	topCerts, err := g.genModule(0, taCert, taKey)
	if err != nil {
		return nil, err
	}

	sem := make(chan struct{}, cfg.Workers)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for k, c := range plan.children[0] {
		wg.Add(1)
		go func(node int32, rc *cert.ResourceCert) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := g.genSubtree(node, rc); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(c, topCerts[k])
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	maxDepth := 0
	for _, d := range plan.depth {
		if int(d) > maxDepth {
			maxDepth = int(d)
		}
	}
	meta := ScaleMeta{
		Seed:    cfg.Seed,
		ROAs:    cfg.ROAs,
		CAs:     len(plan.parent) - 1,
		Modules: len(plan.parent),
		Depth:   maxDepth,
		Host:    scaleHost,
		Epoch:   cfg.Epoch,
	}
	raw, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(cfg.Dir, worldMetaFile), raw, 0o644); err != nil {
		return nil, fmt.Errorf("modelgen: writing metadata: %w", err)
	}
	return &ScaledWorld{Dir: cfg.Dir, Meta: meta}, nil
}
