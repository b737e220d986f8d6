package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/acoustic"
	"repro/internal/lexicon"
	"repro/internal/participant"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/stroke"
)

// sampleRate is the wire rate every device profile records at.
const sampleRate = 44100

// op is one client input to a session: an audio chunk or a flush.
type op struct {
	Flush bool
	// Off and N delimit the chunk's PCM16 bytes within the session audio.
	Off, N int
	// Due is when the chunk's audio is complete (or the flush is
	// sent), measured from the session's arrival. Closed-loop sessions
	// ignore it.
	Due time.Duration
	// Word is what the writer wrote since the previous flush; empty when
	// the flush cuts a word short.
	Word string
}

func (o op) audioSeconds() float64 { return float64(o.N/2) / sampleRate }

// session is one client session: the PCM it streams and the exact
// chunk/flush sequence it sends.
type session struct {
	Name string
	WS   bool
	// Start is the session's arrival offset from the run's origin; a
	// stream session's measured ops are shifted by it.
	Start time.Duration
	PCM   []byte
	Ops   []op
	// Warm counts leading ops sent back to back, unmeasured, before the
	// paced part of the run begins.
	Warm int
}

// plan is a workload's complete, seed-determined input.
type plan struct {
	Workload string
	Seed     uint64
	Seconds  int
	// Closed marks closed-loop plans: each writer cycles through its
	// sessions (indices into Sessions) until the run's time is up.
	Closed   bool
	Writers  [][]int
	Sessions []session
}

// workloads maps each workload name to its generator; main validates
// -workload against it.
var workloads = map[string]func(seed uint64, seconds int) (*plan, error){
	"phrase-long": phraseLong,
	"word-burst":  wordBurst,
	"bulk-upload": bulkUpload,
}

// Workload shapes. Each is explained in README.md.
const (
	phraseSessions = 2
	// phraseChunk is one 200 ms frame. A full-window chunk costs about
	// 65 ms on a 2-vCPU host, so the server stays below a third of the
	// frame period: a host that runs up to twice as slow for a while
	// stretches the latency without letting a backlog build up.
	// The writers are half a frame apart in phase, so their chunks do
	// not arrive together.
	phraseChunk = 8820
	// phraseWarm is the audio each phrase session streams back to back
	// before the paced part starts: enough to fill the stream's
	// 1024-column (~23.8 s) window, so the whole measured span runs at
	// full-window cost. It goes in chunks of up to warmChunk samples, so
	// that filling the window costs the server and the oracle about 25
	// detection passes instead of 125.
	phraseWarm = 25 * time.Second
	warmChunk  = sampleRate // 1 s

	burstRate    = 1.0  // sessions per second
	burstChunk   = 1024 // 23.2 ms, one microphone buffer
	burstLetters = 2    // longest word a burst user writes

	bulkWriters = 2
	bulkTraces  = 6    // distinct traces per writer
	bulkChunk   = 8820 // 200 ms
	// bulkLetters fixes the uploaded words' length, so traces run 8–12 s
	// whichever words a seed draws.
	bulkLetters = 7
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// phraseLong: two WebSocket writers each write phrases continuously in
// one scene, flushing at every word boundary. The sessions are
// synthesized in parallel.
func phraseLong(seed uint64, seconds int) (*plan, error) {
	p := &plan{Workload: "phrase-long", Seed: seed, Seconds: seconds, Sessions: make([]session, phraseSessions)}
	errs := make([]error, phraseSessions)
	var wg sync.WaitGroup
	for i := range p.Sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p.Sessions[i], errs[i] = phraseSession(seed, seconds, i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// phraseSession is phrase writer i: enough phrases to cover the warm-up
// and the measured span, in one scene.
func phraseSession(seed uint64, seconds, i int) (session, error) {
	total := phraseWarm + time.Duration(seconds)*time.Second
	phrases := lexicon.Phrases()
	roster := participant.SixParticipants()
	// One writer in one of the paper's rooms, the other in one of the
	// adversarial scenes: image content, and so enhancement cost, differs
	// by scene, and pairing them keeps every seed's mix alike.
	envs := acoustic.AllEnvironmentKinds()
	scheme := stroke.DefaultScheme()
	rng := newRand(seed, uint64(100+i))
	env := envs[3*(i%2)+rng.IntN(3)]
	writer := roster[rng.IntN(len(roster))].WithProficiency(0.5 + 0.4*rng.Float64())
	motorSeed := rng.Uint64()
	// Add phrases until the performance covers the run.
	var words []string
	var perf *participant.Performance
	var counts []int
	for perf == nil || perf.Finger.Duration() < total.Seconds()+1 {
		words = append(words, strings.Fields(phrases[rng.IntN(len(phrases))])...)
		seqs := make([]stroke.Sequence, len(words))
		for j, w := range words {
			q, err := scheme.Encode(w)
			if err != nil {
				return session{}, fmt.Errorf("phrase word %q: %w", w, err)
			}
			seqs[j] = q
		}
		var err error
		perf, counts, err = participant.NewSession(writer, motorSeed).PerformWords(seqs)
		if err != nil {
			return session{}, err
		}
	}
	scene := &acoustic.Scene{
		Device:     acoustic.Mate9(),
		Env:        acoustic.StandardEnvironment(env),
		Reflectors: acoustic.HandReflectors(perf.Finger),
		Duration:   total.Seconds(),
		Seed:       rng.Uint64(),
	}
	sig, err := scene.Synthesize()
	if err != nil {
		return session{}, err
	}
	s := session{
		Name:  fmt.Sprintf("phrase%d.%s", i, env.Slug()),
		WS:    true,
		Start: seconds2d(float64(i*phraseChunk) / phraseSessions / sampleRate),
		PCM:   serve.EncodePCM16(sig.Samples),
	}
	// A word ends midway through the gap between its last stroke and
	// the next word's first; the writer flushes there.
	var flushAt []time.Duration
	stroke0 := 0
	for j, n := range counts {
		last := perf.Spans[stroke0+n-1].End
		stroke0 += n
		if j == len(counts)-1 {
			break
		}
		next := perf.Spans[stroke0].Start
		flushAt = append(flushAt, seconds2d((last+next)/2))
	}
	s.Ops = chunkOps(len(s.PCM), phraseChunk, phraseWarm, flushAt, words)
	for j, o := range s.Ops {
		if o.Due > phraseWarm {
			s.Warm = j
			break
		}
	}
	return s, nil
}

func seconds2d(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// chunkOps splits n PCM bytes into chunks due when their audio is
// complete, and inserts a flush after the chunk that completes each
// flushAt instant; the flush is due with that chunk. The audio before
// warm goes in chunks of up to warmChunk samples that also end at every
// flush instant, so warm-up words are flushed at their boundaries too;
// the rest goes in chunks of the given sample count. The run ends with a
// flush for whatever word is still open, which is scored only when every
// word was flushed at its boundary.
func chunkOps(n, samples int, warm time.Duration, flushAt []time.Duration, words []string) []op {
	// Positions are in samples; a flush instant rounds up to the sample
	// that completes it.
	flushEnd := make([]int, len(flushAt))
	for i, f := range flushAt {
		flushEnd[i] = int(math.Ceil(f.Seconds() * sampleRate))
	}
	warmEnd := int(warm.Seconds() * sampleRate)
	var ops []op
	next := 0
	for off := 0; ; {
		end := off + samples
		if off < warmEnd {
			end = min(off+warmChunk, warmEnd)
			if next < len(flushEnd) && flushEnd[next] > off && flushEnd[next] < end {
				end = flushEnd[next]
			}
		}
		if 2*end > n {
			break
		}
		due := seconds2d(float64(end) / sampleRate)
		ops = append(ops, op{Off: 2 * off, N: 2 * (end - off), Due: due})
		for next < len(flushEnd) && flushEnd[next] <= end {
			ops = append(ops, op{Flush: true, Due: due, Word: words[next]})
			next++
		}
		off = end
	}
	last := op{Flush: true, Due: ops[len(ops)-1].Due}
	if next == len(words)-1 {
		last.Word = words[next]
	}
	return append(ops, last)
}

// drawWords draws n dictionary words that pass keep by their frequency
// prior, one per equal-probability stratum and then shuffled, so every
// seed gets nearly the same mix of common and rare words.
func drawWords(rng *rand.Rand, n int, keep func(string) bool) ([]string, error) {
	dict, err := lexicon.Default()
	if err != nil {
		return nil, err
	}
	var words []string
	var cum []float64
	total := 0.0
	for _, e := range dict.Entries() {
		if keep(e.Word) {
			total += e.Frequency
			words = append(words, e.Word)
			cum = append(cum, total)
		}
	}
	out := make([]string, n)
	for i := range out {
		u := (float64(i) + rng.Float64()) / float64(n) * total
		out[i] = words[min(sort.SearchFloat64s(cum, u), len(words)-1)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// synthesizeCells renders scenario cells on every CPU; generation runs
// before timing starts.
func synthesizeCells(cells []scenario.Cell) ([][]byte, error) {
	out := make([][]byte, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	sem := make(chan struct{}, nproc())
	for i := range cells {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sig, err := cells[i].Synthesize()
			if err != nil {
				errs[i] = err
				return
			}
			out[i] = serve.EncodePCM16(sig.Samples)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// matrixCells gives each word a cell of the scenario matrix. The
// environment changes fastest: each round of len(envs) words visits
// every environment once, in a freshly shuffled order, so a run of any
// length covers the environments evenly. Within an environment the
// device × proficiency combinations are dealt in a shuffled order,
// cycling when there are more rounds than combinations.
func matrixCells(rng *rand.Rand, words []string, envs []acoustic.EnvironmentKind, devices []string) []scenario.Cell {
	combos := make([][]scenario.Cell, len(envs))
	for i, e := range envs {
		for _, d := range devices {
			for _, p := range scenario.DefaultMatrix().Proficiencies {
				combos[i] = append(combos[i], scenario.Cell{Env: e, Device: d, Proficiency: p})
			}
		}
		rng.Shuffle(len(combos[i]), func(a, b int) { combos[i][a], combos[i][b] = combos[i][b], combos[i][a] })
	}
	cells := make([]scenario.Cell, len(words))
	var order []int
	for i, w := range words {
		if i%len(envs) == 0 {
			order = rng.Perm(len(envs))
		}
		c := combos[order[i%len(envs)]]
		cells[i] = c[i/len(envs)%len(c)]
		cells[i].Word = w
		cells[i].Seed = 1 + rng.Uint64N(1<<20)
	}
	return cells
}

// wordBurst: independent users arrive one per slot of 1/burstRate
// seconds, at the slot's middle; each writes one short word over HTTP in
// microphone-sized chunks, then flushes. Arrivals are evenly spaced
// because with random ones the few sessions of a run pile up differently
// on every seed, and those pile-ups, not the server, set the tail.
func wordBurst(seed uint64, seconds int) (*plan, error) {
	p := &plan{Workload: "word-burst", Seed: seed, Seconds: seconds}
	rng := newRand(seed, 200)
	n := int(burstRate*float64(seconds) + 0.5)
	slot := float64(seconds) / float64(n)
	arrivals := make([]float64, n)
	for i := range arrivals {
		arrivals[i] = (float64(i) + 0.5) * slot
	}
	words, err := drawWords(rng, n, func(w string) bool { return len(w) <= burstLetters })
	if err != nil {
		return nil, err
	}
	m := scenario.DefaultMatrix()
	cells := matrixCells(rng, words, m.Environments, m.Devices)
	pcms, err := synthesizeCells(cells)
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		p.Sessions = append(p.Sessions, session{
			Name:  c.Name(),
			Start: seconds2d(arrivals[i]),
			PCM:   pcms[i],
			Ops:   chunkOps(len(pcms[i]), burstChunk, 0, nil, []string{c.Word}),
		})
	}
	return p, nil
}

// bulkUpload: writers replay recorded watch traces from the adversarial
// environments back to back, as fast as the server answers.
func bulkUpload(seed uint64, seconds int) (*plan, error) {
	p := &plan{Workload: "bulk-upload", Seed: seed, Seconds: seconds, Closed: true}
	rng := newRand(seed, 300)
	words, err := drawWords(rng, bulkWriters*bulkTraces, func(w string) bool { return len(w) == bulkLetters })
	if err != nil {
		return nil, err
	}
	envs := []acoustic.EnvironmentKind{acoustic.CafeBabble, acoustic.VehicleCabin, acoustic.SecondWriter}
	cells := matrixCells(rng, words, envs, []string{"watch2"})
	pcms, err := synthesizeCells(cells)
	if err != nil {
		return nil, err
	}
	p.Writers = make([][]int, bulkWriters)
	for i, c := range cells {
		p.Writers[i%bulkWriters] = append(p.Writers[i%bulkWriters], i)
		p.Sessions = append(p.Sessions, session{
			Name: c.Name(),
			PCM:  pcms[i],
			Ops:  chunkOps(len(pcms[i]), bulkChunk, 0, nil, []string{c.Word}),
		})
	}
	return p, nil
}

// planFormat invalidates cached plans when generation changes.
const planFormat = 3

// hash is the plan's content address: SHA-256 over the writer
// assignment and every session's name, schedule, PCM and op sequence.
func (p *plan) hash() string {
	h := sha256.New()
	put := func(v int64) { h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v))) }
	for _, w := range p.Writers {
		put(int64(len(w)))
		for _, i := range w {
			put(int64(i))
		}
	}
	for _, s := range p.Sessions {
		h.Write([]byte(s.Name))
		put(int64(s.Start))
		put(int64(s.Warm))
		put(boolInt(s.WS))
		h.Write(s.PCM)
		for _, o := range s.Ops {
			put(int64(o.Off))
			put(int64(o.N))
			put(int64(o.Due))
			put(boolInt(o.Flush))
			h.Write([]byte(o.Word))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// pinnedSeed1 holds the seed-1 plan hashes at the default run length.
// Generation is deterministic, so a mismatch means the synthesis or
// workload code changed and results no longer compare with earlier runs.
var pinnedSeed1 = map[string]string{
	"bulk-upload": "b2a31c59e95107a50d7f92fa58ef323ac67486dbf37e2ea2f0efd1f7f40b8982",
	"phrase-long": "be22a967805d1e992ceb2d22eaf54ea1f5b05ff7907ea68c7fefe1077cbddf00",
	"word-burst":  "5ba6fee10235c741b6d7573a8704b4f032f87d0062a0eea34910902054dae12a",
}

// loadPlan returns the workload's plan for seed, from the cache under
// dir when present (verified against its recorded content hash),
// generating and caching it otherwise.
func loadPlan(dir, workload string, seed uint64, seconds int) (*plan, error) {
	gen, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.s%d.t%d.v%d.gob", workload, seed, seconds, planFormat))
	var p *plan
	if data, err := os.ReadFile(path); err == nil {
		var c struct {
			Hash string
			Plan *plan
		}
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&c) == nil && c.Plan.hash() == c.Hash {
			p = c.Plan
		}
	}
	if p == nil {
		var err error
		if p, err = gen(seed, seconds); err != nil {
			return nil, err
		}
		if err := savePlan(path, p); err != nil {
			return nil, err
		}
	}
	if want, ok := pinnedSeed1[workload]; ok && seed == 1 && seconds == defaultSeconds {
		if got := p.hash(); got != want {
			return nil, fmt.Errorf("%s seed 1 plan hash %s, pinned %s: input generation changed", workload, got, want)
		}
	}
	return p, nil
}

func savePlan(path string, p *plan) error {
	var buf bytes.Buffer
	c := struct {
		Hash string
		Plan *plan
	}{p.hash(), p}
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return fmt.Errorf("encode plan: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
