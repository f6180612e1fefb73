// Package monitor implements the countermeasure direction the paper
// proposes: watching RPKI repositories for manipulations. It diffs
// publication-point snapshots over time and classifies changes as benign
// churn or suspected abuse:
//
//   - a certificate revoked on the CRL → transparent revocation (visible
//     by design, Side Effect 1);
//   - an object deleted with no CRL entry → suspected stealthy revocation
//     (Side Effect 2);
//   - a certificate overwritten with fewer resources → RC shrink, the
//     fingerprint of targeted whacking (Side Effect 3);
//   - a ROA appearing in one repository shortly after equivalent VRPs were
//     lost from another → suspected make-before-break reissue (Figure 3);
//   - a CA certificate for a key already certified elsewhere → suspected
//     replacement RC (deep whack, Side Effect 4).
//
// The monitor sees exactly what a third party can see: published objects.
// It cannot distinguish a malicious shrink from a legitimate reclamation —
// the paper's point is that the *protocol* cannot either.
package monitor

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cert"
	"repro/internal/ipres"
	"repro/internal/roa"
	"repro/internal/rov"
)

// EventKind classifies an observed repository change.
type EventKind uint8

const (
	// EventAdded: a new object appeared.
	EventAdded EventKind = iota
	// EventRemoved: an object disappeared.
	EventRemoved
	// EventModified: an object was overwritten in place.
	EventModified
	// EventRevocation: a removed certificate's serial appeared on the CRL
	// (transparent whack).
	EventRevocation
	// EventStealthyDelete: a certificate or ROA vanished with no CRL
	// entry.
	EventStealthyDelete
	// EventRCShrink: a certificate was overwritten with strictly fewer
	// resources.
	EventRCShrink
	// EventSuspiciousReissue: a new ROA's VRPs match VRPs recently lost
	// from a different repository.
	EventSuspiciousReissue
	// EventReplacementRC: a new CA certificate certifies a subject key
	// already certified in another repository.
	EventReplacementRC
)

func (k EventKind) String() string {
	switch k {
	case EventAdded:
		return "added"
	case EventRemoved:
		return "removed"
	case EventModified:
		return "modified"
	case EventRevocation:
		return "revocation"
	case EventStealthyDelete:
		return "stealthy-delete"
	case EventRCShrink:
		return "rc-shrink"
	case EventSuspiciousReissue:
		return "suspicious-reissue"
	case EventReplacementRC:
		return "replacement-rc"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Severity grades events for alerting.
type Severity uint8

const (
	// Info: routine churn.
	Info Severity = iota
	// Notice: visible-by-design authority action (revocation).
	Notice
	// Warning: consistent with abuse but also with misconfiguration.
	Warning
	// Alert: the fingerprint of a targeted manipulation.
	Alert
)

func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Notice:
		return "notice"
	case Warning:
		return "warning"
	case Alert:
		return "alert"
	}
	return fmt.Sprintf("Severity(%d)", uint8(s))
}

// Event is one classified observation.
type Event struct {
	Kind     EventKind
	Severity Severity
	Module   string
	Object   string
	Detail   string
}

func (e Event) String() string {
	return fmt.Sprintf("[%s/%s] %s/%s: %s", e.Severity, e.Kind, e.Module, e.Object, e.Detail)
}

// objectInfo is the monitor's parsed view of one published object.
type objectInfo struct {
	hash      [32]byte
	kind      string // "cer", "roa", "crl", "mft", "?"
	resources ipres.Set
	serial    string
	ski       string
	isCA      bool
	vrps      []rov.VRP
}

func parseObject(name string, content []byte) objectInfo {
	info := objectInfo{hash: sha256.Sum256(content), kind: "?"}
	switch {
	case strings.HasSuffix(name, ".cer"):
		info.kind = "cer"
		if rc, err := cert.Parse(content); err == nil {
			info.resources = rc.IPSet()
			info.serial = rc.SerialNumber().String()
			info.ski = hex.EncodeToString(rc.Cert.SubjectKeyId)
			info.isCA = rc.IsCA()
		}
	case strings.HasSuffix(name, ".roa"):
		info.kind = "roa"
		if signed, err := roa.ParseSigned(content); err == nil {
			info.vrps = rov.FromROA(signed.ROA)
			info.serial = signed.EE.SerialNumber().String()
		}
	case strings.HasSuffix(name, ".crl"):
		info.kind = "crl"
	case strings.HasSuffix(name, ".mft"):
		info.kind = "mft"
	}
	return info
}

// moduleState is the remembered view of one repository.
type moduleState struct {
	objects map[string]objectInfo
	revoked map[string]bool // serials on the module's CRL
}

// Watcher correlates snapshots across repositories over time. Observe
// must be called from one goroutine at a time: it mutates cross-repository
// correlation state.
type Watcher struct {
	modules map[string]*moduleState
	// lostVRPs remembers VRPs that disappeared recently (by epoch), for
	// cross-repository reissue correlation.
	lostVRPs map[rov.VRP]string // VRP → module it was lost from
	// knownSKIs maps CA subject-key IDs to the module certifying them.
	knownSKIs map[string]string
	// shrunkSpace accumulates address space recently removed by RC
	// shrinks, keyed by the module where the shrink was observed. A new
	// ROA overlapping this space is the make-before-break fingerprint
	// (the whacked ROA itself typically stays published — invalid).
	shrunkSpace map[string]ipres.Set
}

// NewWatcher creates an empty watcher.
func NewWatcher() *Watcher {
	return &Watcher{
		modules:     make(map[string]*moduleState),
		lostVRPs:    make(map[rov.VRP]string),
		knownSKIs:   make(map[string]string),
		shrunkSpace: make(map[string]ipres.Set),
	}
}

// Observe ingests a snapshot of a module and returns classified events
// relative to the previous snapshot. The first observation of a module
// baselines it silently (only replacement-RC correlation fires).
func (w *Watcher) Observe(module string, snapshot map[string][]byte) []Event {
	parsed := parseSnapshot(snapshot)
	revoked := extractRevocations(snapshot)

	prev, seen := w.modules[module]
	state := &moduleState{objects: parsed, revoked: revoked}
	w.modules[module] = state

	var events []Event
	emit := func(kind EventKind, sev Severity, object, detail string) {
		events = append(events, Event{Kind: kind, Severity: sev, Module: module, Object: object, Detail: detail})
	}

	names := make([]string, 0, len(parsed))
	for name := range parsed {
		names = append(names, name)
	}
	sort.Strings(names)

	// Pass 1: existing-object changes (replacement-RC correlation fires
	// even on baseline; shrink detection records the removed space so
	// pass 2 can correlate reissued ROAs regardless of iteration order).
	for _, name := range names {
		cur := parsed[name]
		if cur.kind == "cer" && cur.isCA && cur.ski != "" {
			if otherModule, known := w.knownSKIs[cur.ski]; known && otherModule != module {
				emit(EventReplacementRC, Alert, name,
					fmt.Sprintf("CA key %s… already certified in %s — possible deep-whack replacement RC", cur.ski[:12], otherModule))
			} else if !known {
				w.knownSKIs[cur.ski] = module
			}
		}
		if !seen {
			continue
		}
		old, had := prev.objects[name]
		if !had {
			continue // handled in pass 2
		}
		if bytes.Equal(old.hash[:], cur.hash[:]) {
			continue
		}
		if cur.kind == "cer" && !old.resources.IsEmpty() && !cur.resources.IsEmpty() &&
			old.resources.Covers(cur.resources) && !cur.resources.Covers(old.resources) {
			removed := old.resources.Subtract(cur.resources)
			w.shrunkSpace[module] = w.shrunkSpace[module].Union(removed)
			emit(EventRCShrink, Alert, name,
				fmt.Sprintf("certificate overwritten with shrunken resources; removed %v", removed))
			continue
		}
		emit(EventModified, Info, name, "object overwritten (routine under persistent names)")
	}

	// Pass 2: additions.
	for _, name := range names {
		if !seen {
			break
		}
		cur := parsed[name]
		if _, had := prev.objects[name]; had {
			continue
		}
		if cur.kind == "roa" {
			if from := w.matchLostVRPs(cur.vrps); from != "" && from != module {
				emit(EventSuspiciousReissue, Alert, name,
					fmt.Sprintf("ROA matches VRPs recently lost from %s — possible make-before-break", from))
				continue
			}
			if mod, overlaps := w.matchShrunkSpace(cur.vrps); overlaps {
				emit(EventSuspiciousReissue, Alert, name,
					fmt.Sprintf("ROA covers space recently removed by an RC shrink in %s — possible make-before-break", mod))
				continue
			}
		}
		emit(EventAdded, Info, name, "new object published")
	}

	if seen {
		oldNames := make([]string, 0, len(prev.objects))
		for name := range prev.objects {
			oldNames = append(oldNames, name)
		}
		sort.Strings(oldNames)
		for _, name := range oldNames {
			old := prev.objects[name]
			if _, still := parsed[name]; still {
				continue
			}
			// Remember lost VRPs for cross-repo correlation.
			for _, v := range old.vrps {
				w.lostVRPs[v] = module
			}
			switch {
			case old.serial != "" && revoked[old.serial]:
				emit(EventRevocation, Notice, name,
					fmt.Sprintf("withdrawn and serial %s revoked on CRL — transparent revocation", old.serial))
			case old.kind == "cer" || old.kind == "roa":
				emit(EventStealthyDelete, Warning, name,
					"object vanished with no CRL entry — suspected stealthy revocation")
			default:
				emit(EventRemoved, Info, name, "object withdrawn")
			}
		}
	}
	return events
}

// parseSnapshot parses every object of a snapshot.
func parseSnapshot(snapshot map[string][]byte) map[string]objectInfo {
	parsed := make(map[string]objectInfo, len(snapshot))
	for name, content := range snapshot {
		parsed[name] = parseObject(name, content)
	}
	return parsed
}

// matchShrunkSpace reports whether any VRP overlaps recently shrunk space,
// and in which module the shrink was seen.
func (w *Watcher) matchShrunkSpace(vrps []rov.VRP) (string, bool) {
	for module, space := range w.shrunkSpace {
		for _, v := range vrps {
			if space.Overlaps(ipres.SetOfPrefixes(v.Prefix)) {
				return module, true
			}
		}
	}
	return "", false
}

// matchLostVRPs reports the module that recently lost any of the given
// VRPs ("" if none).
func (w *Watcher) matchLostVRPs(vrps []rov.VRP) string {
	for _, v := range vrps {
		if from, ok := w.lostVRPs[v]; ok {
			return from
		}
	}
	return ""
}

// extractRevocations parses every CRL in the snapshot into a serial set.
func extractRevocations(snapshot map[string][]byte) map[string]bool {
	out := make(map[string]bool)
	for name, content := range snapshot {
		if !strings.HasSuffix(name, ".crl") {
			continue
		}
		crl, err := cert.ParseCRL(content)
		if err != nil {
			continue
		}
		for _, e := range crl.List.RevokedCertificateEntries {
			out[e.SerialNumber.String()] = true
		}
	}
	return out
}

// MaxSeverity returns the highest severity among events (Info for none).
func MaxSeverity(events []Event) Severity {
	max := Info
	for _, e := range events {
		if e.Severity > max {
			max = e.Severity
		}
	}
	return max
}

// Filter returns the events at or above the given severity.
func Filter(events []Event, min Severity) []Event {
	var out []Event
	for _, e := range events {
		if e.Severity >= min {
			out = append(out, e)
		}
	}
	return out
}
