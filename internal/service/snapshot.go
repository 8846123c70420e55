package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"

	"vmr2l/internal/cluster"
	"vmr2l/internal/scenario"
	"vmr2l/internal/sched"
)

// Session snapshots make a live session durable and portable: the full
// replayable state — cluster mapping with PM health and the exact hosted-VM
// ordering, the dynamics engine's clock/stats/pending-evacuation queue, and
// the RNG position — serializes into one self-describing blob, using the
// same framing discipline as the nn checkpoint format ("VMR2LCK1"):
//
//	[8]  magic "VMR2LSS1"
//	[4]  manifest length, uint32 little-endian
//	[..] manifest, JSON (SnapManifest)
//	[..] packed int64 little-endian sections, tightly packed in manifest order
//
// The manifest carries everything non-tabular (seed, RNG draw count, the
// declarative dynamics spec and flavor mix, the engine state); the data
// sections carry the cluster tables. Restore is staged-then-committed: the
// blob is fully parsed, validated, and rebuilt into a fresh session before
// anything replaces server state, so a truncated or corrupt snapshot can
// never leave a half-restored session behind.
//
// The invariant the format exists for: snapshot → restore → Advance is
// bit-identical to the uninterrupted session. That is what lets a fleet
// coordinator re-home sessions from their last snapshot after a replica
// dies and still compare the survivor against a failure-free twin.
const snapMagic = "VMR2LSS1"

const (
	snapVersion = 1
	// snapMaxManifest / snapMaxSection bound allocations when reading
	// untrusted blobs.
	snapMaxManifest = 1 << 24
	snapMaxSection  = 1 << 28
)

// SnapSection locates one packed data section. Offsets are relative to the
// start of the data area (the byte after the manifest); values are int64
// little-endian.
type SnapSection struct {
	// Name is "pms" (5 values per PM: per-NUMA cpu/mem capacity, health),
	// "pm_vms" (per PM: hosted count then hosted VM ids, in exact engine
	// order), or "vms" (6 values per VM: cpu, mem, numas, pm, numa, service).
	Name   string `json:"name"`
	Offset int64  `json:"offset"`
	Bytes  int64  `json:"bytes"`
}

// SnapManifest is the JSON header of a session snapshot.
type SnapManifest struct {
	Version  int    `json:"version"`
	ID       string `json:"id"`
	Scenario string `json:"scenario,omitempty"`
	Budget   int    `json:"budget,omitempty"`
	// Seed and Draws locate the session's RNG position: restore reseeds and
	// fast-forwards (sched.CountedSource), continuing the identical stream.
	Seed  int64  `json:"seed"`
	Draws uint64 `json:"rng_draws"`
	// Rev is the session's mutation counter at snapshot time.
	Rev uint64 `json:"rev"`
	// Spec and Mix rebuild the dynamics engine declaratively — no scenario
	// registry lookup, so snapshots of unregistered (e.g. fuzzed) scenarios
	// restore anywhere.
	Spec scenario.DynamicsSpec `json:"spec"`
	Mix  []cluster.VMType      `json:"mix,omitempty"`
	// Dyn is the engine state (clock, stats, free-id stack, failure
	// bookkeeping including the pending-evacuation queue in mark order).
	Dyn          sched.DynState `json:"dyn"`
	AntiAffinity bool           `json:"anti_affinity,omitempty"`
	PMs          int            `json:"pms"`
	VMs          int            `json:"vms"`
	Sections     []SnapSection  `json:"sections"`
}

// encodeSnapshotLocked serializes the session; callers hold sess.mu.
func (sess *session) encodeSnapshotLocked() ([]byte, error) {
	c := sess.c
	m := SnapManifest{
		Version:      snapVersion,
		ID:           sess.id,
		Scenario:     sess.scenario,
		Budget:       sess.budget,
		Seed:         sess.seed,
		Draws:        sess.src.Draws(),
		Rev:          sess.rev,
		Spec:         sess.spec,
		Mix:          sess.mix,
		Dyn:          sess.dyn.ExportState(),
		AntiAffinity: c.AntiAffinity,
		PMs:          len(c.PMs),
		VMs:          len(c.VMs),
	}
	pms := make([]int64, 0, 5*len(c.PMs))
	for i := range c.PMs {
		p := &c.PMs[i]
		pms = append(pms,
			int64(p.Numas[0].CPUCap), int64(p.Numas[0].MemCap),
			int64(p.Numas[1].CPUCap), int64(p.Numas[1].MemCap),
			int64(p.Health))
	}
	pmVMs := make([]int64, 0, 2*len(c.PMs))
	for i := range c.PMs {
		pmVMs = append(pmVMs, int64(len(c.PMs[i].VMs)))
		for _, vm := range c.PMs[i].VMs {
			pmVMs = append(pmVMs, int64(vm))
		}
	}
	vms := make([]int64, 0, 6*len(c.VMs))
	for i := range c.VMs {
		v := &c.VMs[i]
		vms = append(vms,
			int64(v.CPU), int64(v.Mem), int64(v.Numas),
			int64(v.PM), int64(v.Numa), int64(v.Service))
	}
	sections := [][]int64{pms, pmVMs, vms}
	names := []string{"pms", "pm_vms", "vms"}
	var off int64
	for i, sec := range sections {
		n := int64(8 * len(sec))
		m.Sections = append(m.Sections, SnapSection{Name: names[i], Offset: off, Bytes: n})
		off += n
	}
	mj, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("service: encode snapshot manifest: %w", err)
	}
	var buf bytes.Buffer
	buf.Grow(len(snapMagic) + 4 + len(mj) + int(off))
	buf.WriteString(snapMagic)
	var lenBuf [8]byte
	binary.LittleEndian.PutUint32(lenBuf[:4], uint32(len(mj)))
	buf.Write(lenBuf[:4])
	buf.Write(mj)
	for _, sec := range sections {
		for _, v := range sec {
			binary.LittleEndian.PutUint64(lenBuf[:], uint64(v))
			buf.Write(lenBuf[:])
		}
	}
	return buf.Bytes(), nil
}

// ReadSnapManifest parses and validates the framing of a snapshot blob,
// returning the manifest and the packed data area. Nothing is rebuilt yet.
func ReadSnapManifest(r io.Reader) (*SnapManifest, []byte, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("service: read snapshot header: %w", err)
	}
	if string(hdr[:8]) != snapMagic {
		return nil, nil, fmt.Errorf("service: not a session snapshot (magic %q)", hdr[:8])
	}
	mlen := binary.LittleEndian.Uint32(hdr[8:12])
	if mlen == 0 || mlen > snapMaxManifest {
		return nil, nil, fmt.Errorf("service: implausible snapshot manifest length %d", mlen)
	}
	mj := make([]byte, mlen)
	if _, err := io.ReadFull(r, mj); err != nil {
		return nil, nil, fmt.Errorf("service: read snapshot manifest: %w", err)
	}
	var m SnapManifest
	if err := json.Unmarshal(mj, &m); err != nil {
		return nil, nil, fmt.Errorf("service: decode snapshot manifest: %w", err)
	}
	if m.Version != snapVersion {
		return nil, nil, fmt.Errorf("service: unsupported snapshot version %d", m.Version)
	}
	if m.PMs < 0 || m.VMs < 0 {
		return nil, nil, fmt.Errorf("service: negative table size in snapshot manifest")
	}
	// Sections must be exactly the three tables, tightly packed in order.
	want := []struct {
		name  string
		bytes int64
	}{
		{"pms", int64(8 * 5 * m.PMs)},
		{"pm_vms", -1}, // variable: validated against the placed-VM count below
		{"vms", int64(8 * 6 * m.VMs)},
	}
	if len(m.Sections) != len(want) {
		return nil, nil, fmt.Errorf("service: snapshot has %d sections, want %d", len(m.Sections), len(want))
	}
	var off int64
	for i, sec := range m.Sections {
		if sec.Name != want[i].name {
			return nil, nil, fmt.Errorf("service: snapshot section %d is %q, want %q", i, sec.Name, want[i].name)
		}
		if sec.Offset != off {
			return nil, nil, fmt.Errorf("service: snapshot section %q not tightly packed (offset %d, want %d)", sec.Name, sec.Offset, off)
		}
		if sec.Bytes < 0 || sec.Bytes > snapMaxSection || sec.Bytes%8 != 0 {
			return nil, nil, fmt.Errorf("service: implausible snapshot section %q size %d", sec.Name, sec.Bytes)
		}
		if want[i].bytes >= 0 && sec.Bytes != want[i].bytes {
			return nil, nil, fmt.Errorf("service: snapshot section %q is %d bytes, want %d", sec.Name, sec.Bytes, want[i].bytes)
		}
		off += sec.Bytes
	}
	data := make([]byte, off)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, nil, fmt.Errorf("service: read snapshot data (%d bytes): %w", off, err)
	}
	return &m, data, nil
}

// sectionInts returns section i of the data area as int64s.
func sectionInts(m *SnapManifest, data []byte, i int) []int64 {
	sec := m.Sections[i]
	out := make([]int64, sec.Bytes/8)
	for j := range out {
		out[j] = int64(binary.LittleEndian.Uint64(data[sec.Offset+int64(8*j):]))
	}
	return out
}

// DecodeSnapshot rebuilds a full session from a snapshot blob. The session
// is complete and self-consistent on return (cluster validated, dynamics
// state imported, RNG fast-forwarded) but not yet registered anywhere —
// staging is the caller's problem, committing is one map insert.
func DecodeSnapshot(r io.Reader) (*session, error) {
	m, data, err := ReadSnapManifest(r)
	if err != nil {
		return nil, err
	}
	if !validSessionID(m.ID) {
		return nil, fmt.Errorf("service: snapshot has invalid session id %q", m.ID)
	}
	pms, pmVMs, vms := sectionInts(m, data, 0), sectionInts(m, data, 1), sectionInts(m, data, 2)

	c := &cluster.Cluster{PMs: make([]cluster.PM, m.PMs), VMs: make([]cluster.VM, m.VMs)}
	for i := range c.PMs {
		row := pms[5*i : 5*i+5]
		if h := row[4]; h < int64(cluster.Up) || h > int64(cluster.Down) {
			return nil, fmt.Errorf("service: snapshot pm %d has unknown health %d", i, h)
		}
		c.PMs[i] = cluster.PM{
			ID: i,
			Numas: [cluster.NumasPerPM]cluster.Numa{
				{CPUCap: int(row[0]), MemCap: int(row[1])},
				{CPUCap: int(row[2]), MemCap: int(row[3])},
			},
			Health: cluster.Health(row[4]),
		}
	}
	for i := range c.VMs {
		row := vms[6*i : 6*i+6]
		c.VMs[i] = cluster.VM{
			ID: i, CPU: int(row[0]), Mem: int(row[1]), Numas: int(row[2]),
			PM: int(row[3]), Numa: int(row[4]), Service: int(row[5]),
		}
		if pm := c.VMs[i].PM; pm >= m.PMs {
			return nil, fmt.Errorf("service: snapshot vm %d references pm %d of %d", i, pm, m.PMs)
		}
	}
	// Rebuild each PM's hosted list in the exact recorded order — the
	// dynamics engine iterates and swap-deletes these lists, so ordering is
	// part of bit-identical replay — and charge usage from the VM demands.
	idx := 0
	for i := range c.PMs {
		if idx >= len(pmVMs) {
			return nil, fmt.Errorf("service: snapshot pm_vms section truncated at pm %d", i)
		}
		n := pmVMs[idx]
		idx++
		if n < 0 || int64(idx)+n > int64(len(pmVMs)) {
			return nil, fmt.Errorf("service: snapshot pm %d hosts implausible count %d", i, n)
		}
		for k := int64(0); k < n; k++ {
			vm := pmVMs[idx]
			idx++
			if vm < 0 || vm >= int64(m.VMs) {
				return nil, fmt.Errorf("service: snapshot pm %d hosts out-of-range vm %d", i, vm)
			}
			v := &c.VMs[vm]
			if v.PM != i {
				return nil, fmt.Errorf("service: snapshot pm %d lists vm %d, which says pm %d", i, vm, v.PM)
			}
			if v.Numas != 1 && v.Numas != 2 {
				return nil, fmt.Errorf("service: snapshot vm %d spans %d numas", vm, v.Numas)
			}
			c.PMs[i].VMs = append(c.PMs[i].VMs, int(vm))
			if v.Numas == 2 {
				for j := range c.PMs[i].Numas {
					c.PMs[i].Numas[j].CPUUsed += v.CPUPerNuma()
					c.PMs[i].Numas[j].MemUsed += v.MemPerNuma()
				}
			} else {
				if v.Numa < 0 || v.Numa >= cluster.NumasPerPM {
					return nil, fmt.Errorf("service: snapshot vm %d has numa %d", vm, v.Numa)
				}
				c.PMs[i].Numas[v.Numa].CPUUsed += v.CPUPerNuma()
				c.PMs[i].Numas[v.Numa].MemUsed += v.MemPerNuma()
			}
		}
	}
	if idx != len(pmVMs) {
		return nil, fmt.Errorf("service: snapshot pm_vms section has %d trailing values", len(pmVMs)-idx)
	}
	for i := range c.VMs {
		if c.VMs[i].Placed() {
			found := false
			for _, vm := range c.PMs[c.VMs[i].PM].VMs {
				if vm == i {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("service: snapshot vm %d claims pm %d but is not in its hosted list", i, c.VMs[i].PM)
			}
		}
	}
	if m.AntiAffinity {
		c.EnableAntiAffinity()
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("service: snapshot cluster invalid: %w", err)
	}

	src := sched.NewCountedSource(m.Seed)
	src.Skip(m.Draws)
	dyn := m.Spec.NewDynamics(c, rand.New(src), m.Mix)
	if err := dyn.ImportState(m.Dyn); err != nil {
		return nil, fmt.Errorf("service: snapshot dynamics: %w", err)
	}
	return &session{
		id:       m.ID,
		scenario: m.Scenario,
		budget:   m.Budget,
		seed:     m.Seed,
		spec:     m.Spec,
		mix:      m.Mix,
		c:        c,
		dyn:      dyn,
		src:      src,
		rev:      m.Rev,
	}, nil
}

// handleSnapshotGet serves GET /v2/clusters/{id}/snapshot: the session's
// full durable state as one blob, taken atomically under the session lock.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown cluster session %q", r.PathValue("id"))
		return
	}
	sess.mu.Lock()
	blob, err := sess.encodeSnapshotLocked()
	rev := sess.rev
	sess.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode snapshot: %v", err)
		return
	}
	s.statSnapshots.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Vmr2l-Snapshot-Rev", fmt.Sprint(rev))
	w.Header().Set("Content-Length", fmt.Sprint(len(blob)))
	_, _ = w.Write(blob)
}

// handleSnapshotPut serves PUT /v2/clusters/{id}/snapshot: restore (or
// create) the session at the path id from a snapshot blob. The blob is fully
// decoded and validated into a staged session first; server state changes
// only on success. Restoring over an existing session replaces it — that is
// the re-homing semantic: the coordinator's last snapshot is the truth.
func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var sess *session
	if !readBody(w, r, func(b io.Reader) (err error) { sess, err = DecodeSnapshot(b); return err }) {
		return
	}
	if sess.id != id {
		httpError(w, http.StatusBadRequest, "snapshot is of session %q, not %q", sess.id, id)
		return
	}
	sess.dyn.SetReuseSlots(true)
	s.sessMu.Lock()
	_, existed := s.sessions[id]
	if !existed && len(s.sessions) >= maxSessions {
		s.sessMu.Unlock()
		s.statSessRejected.Add(1)
		httpError(w, http.StatusServiceUnavailable, "session limit reached (%d)", maxSessions)
		return
	}
	s.sessions[id] = sess
	s.sessMu.Unlock()
	s.statRestores.Add(1)
	code := http.StatusOK
	if !existed {
		code = http.StatusCreated
	}
	writeJSON(w, code, sess.status())
}
