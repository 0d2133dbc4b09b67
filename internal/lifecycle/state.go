package lifecycle

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"graf/internal/forecast"
	"graf/internal/gnn"
)

// persistedState is the gob schema of a lifecycle snapshot. Models travel as
// their own MarshalBinary blobs; the archive carries every generation so a
// restored run can still roll back and still replay multi-generation logs.
type persistedState struct {
	Phase         int
	Gen           int
	PrevGen       int
	Cooldown      int
	RecoverStreak int
	LastRetrainAt float64

	ShadowFrom int
	ShadowLeft int
	ShadowN    int
	CandErrSum float64
	IncErrSum  float64
	ProbLeft   int

	LastRatio   float64
	BoundsScale float64

	Trips, Promotions, Rollbacks, Rejections, Retrains, Recoveries int

	Monitor Monitor
	Samples []gnn.Sample

	HampelP99  forecast.Hampel
	HampelRate map[string]forecast.Hampel

	Candidate []byte
	Archive   map[int][]byte
}

// SnapshotState serializes the manager's complete lifecycle state — phase,
// monitor statistics, rolling samples, Hampel windows, candidate and every
// archived model generation — as an opaque blob for internal/ckpt. A warm
// restore from a snapshot taken mid-canary resumes the probation window
// exactly where it stood.
func (m *Manager) SnapshotState() []byte {
	st := persistedState{
		Phase:         int(m.phase),
		Gen:           m.gen,
		PrevGen:       m.prevGen,
		Cooldown:      m.cooldown,
		RecoverStreak: m.recoverStreak,
		LastRetrainAt: m.lastRetrainAt,
		ShadowFrom:    int(m.shadowFrom),
		ShadowLeft:    m.shadowLeft,
		ShadowN:       m.shadowN,
		CandErrSum:    m.candErrSum,
		IncErrSum:     m.incErrSum,
		ProbLeft:      m.probLeft,
		LastRatio:     m.lastRatio,
		BoundsScale:   m.boundsScale,
		Trips:         m.trips, Promotions: m.promotions, Rollbacks: m.rollbacks,
		Rejections: m.rejections, Retrains: m.retrains, Recoveries: m.recoveries,
		Monitor:    *m.mon,
		Samples:    m.Samples(),
		HampelP99:  *m.hampelP99,
		HampelRate: map[string]forecast.Hampel{},
		Archive:    map[int][]byte{},
	}
	for api, h := range m.hampelRate {
		st.HampelRate[api] = *h
	}
	if m.candidate != nil {
		if b, err := m.candidate.MarshalBinary(); err == nil {
			st.Candidate = b
		}
	}
	gens := make([]int, 0, len(m.archive))
	for g := range m.archive {
		gens = append(gens, g)
	}
	sort.Ints(gens)
	for _, g := range gens {
		if b, err := m.archive[g].MarshalBinary(); err == nil {
			st.Archive[g] = b
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil
	}
	return buf.Bytes()
}

// RestoreState overwrites the manager's lifecycle state from a snapshot blob
// and re-applies the restored model world to the attached controller. The
// apply is non-destructive when the controller was itself warm-restored from
// the same snapshot (its ControllerState already carries the generation and
// trust): only the Model pointer is refreshed, so decision state survives
// byte-identical.
func (m *Manager) RestoreState(blob []byte) error {
	if len(blob) == 0 {
		return nil
	}
	var st persistedState
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&st); err != nil {
		return fmt.Errorf("lifecycle: decode state: %w", err)
	}
	archive := make(map[int]*gnn.Model, len(st.Archive))
	for g, b := range st.Archive {
		mod := &gnn.Model{}
		if err := mod.UnmarshalBinary(b); err != nil {
			return fmt.Errorf("lifecycle: decode archived gen %d: %w", g, err)
		}
		archive[g] = mod
	}
	inc, ok := archive[st.Gen]
	if !ok {
		return fmt.Errorf("lifecycle: snapshot has no model for incumbent gen %d", st.Gen)
	}
	var cand *gnn.Model
	if len(st.Candidate) > 0 {
		cand = &gnn.Model{}
		if err := cand.UnmarshalBinary(st.Candidate); err != nil {
			return fmt.Errorf("lifecycle: decode candidate: %w", err)
		}
	}

	m.phase = Phase(st.Phase)
	m.gen = st.Gen
	m.prevGen = st.PrevGen
	m.cooldown = st.Cooldown
	m.recoverStreak = st.RecoverStreak
	m.lastRetrainAt = st.LastRetrainAt
	m.shadowFrom = Phase(st.ShadowFrom)
	m.shadowLeft = st.ShadowLeft
	m.shadowN = st.ShadowN
	m.candErrSum = st.CandErrSum
	m.incErrSum = st.IncErrSum
	m.probLeft = st.ProbLeft
	m.lastRatio = st.LastRatio
	if m.lastRatio <= 0 {
		m.lastRatio = 1
	}
	m.boundsScale = st.BoundsScale
	if m.boundsScale <= 0 {
		m.boundsScale = 1
	}
	m.trips, m.promotions, m.rollbacks = st.Trips, st.Promotions, st.Rollbacks
	m.rejections, m.retrains, m.recoveries = st.Rejections, st.Retrains, st.Recoveries
	mon := st.Monitor
	m.mon = &mon
	m.samples = st.Samples
	hp := st.HampelP99
	m.hampelP99 = &hp
	m.hampelRate = map[string]*forecast.Hampel{}
	for api, h := range st.HampelRate {
		hh := h
		m.hampelRate[api] = &hh
	}
	m.candidate = cand
	m.incumbent = inc
	m.archive = archive

	if m.ctl != nil {
		if m.ctl.ModelGen() != m.gen {
			m.ctl.SetModel(m.incumbent, m.gen)
		} else {
			m.ctl.Model = m.incumbent
		}
		if want := m.trustFor(m.phase); m.ctl.Trust() != want {
			m.ctl.SetTrust(want)
		}
		if m.boundsScale > 1 {
			m.ctl.Bounds = m.scaledBounds()
		}
	}
	return nil
}
