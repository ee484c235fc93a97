// Package workload implements the paper's application drivers: the four
// Filebench profiles used throughout the evaluation (webserver, webproxy,
// varmail, videoserver) and a closed-loop thread runner. Each profile
// issues operations against a container's file/anon API; throughput falls
// out of operation latency exactly as it does on real hardware.
package workload

import (
	"math/rand"
	"time"

	"doubledecker/internal/fsmodel"
	"doubledecker/internal/guest"
	"doubledecker/internal/metrics"
	"doubledecker/internal/sim"
)

// Profile is a workload running inside one container. Step performs one
// operation on behalf of the given thread and returns its latency
// (including think time) and payload bytes moved.
type Profile interface {
	Name() string
	Prepare(now time.Duration, c *guest.Container)
	Step(now time.Duration, c *guest.Container, thread int) (time.Duration, int64)
}

// Runner drives closed-loop threads of one profile inside a container.
type Runner struct {
	engine    *sim.Engine
	container *guest.Container
	profile   Profile

	ops     int64
	bytes   int64
	lat     *metrics.Histogram
	started time.Duration
	stopped bool
}

// minStep guards against zero-latency infinite loops.
const minStep = time.Microsecond

// Start prepares the profile and launches threads closed-loop threads.
func Start(engine *sim.Engine, c *guest.Container, p Profile, threads int) *Runner {
	r := &Runner{
		engine:    engine,
		container: c,
		profile:   p,
		lat:       metrics.NewHistogram(),
		started:   engine.Now(),
	}
	p.Prepare(engine.Now(), c)
	for t := 0; t < threads; t++ {
		t := t
		var loop func()
		loop = func() {
			if r.stopped {
				return
			}
			now := engine.Now()
			lat, bytes := p.Step(now, c, t)
			if lat < minStep {
				lat = minStep
			}
			r.ops++
			r.bytes += bytes
			r.lat.Observe(lat)
			engine.Schedule(lat, loop)
		}
		engine.Schedule(0, loop)
	}
	return r
}

// Stop halts all threads after their in-flight operation.
func (r *Runner) Stop() { r.stopped = true }

// Checkpoint captures the runner's counters at a point in time, so
// callers can compute steady-state windows that exclude warm-up.
type Checkpoint struct {
	At    time.Duration
	Ops   int64
	Bytes int64
}

// CheckpointNow snapshots the counters and swaps in a fresh latency
// histogram; Latency() afterwards reflects only post-checkpoint ops.
func (r *Runner) CheckpointNow(now time.Duration) Checkpoint {
	cp := Checkpoint{At: now, Ops: r.ops, Bytes: r.bytes}
	r.lat = metrics.NewHistogram()
	return cp
}

// OpsPerSecSince reports throughput over the window since cp.
func (r *Runner) OpsPerSecSince(cp Checkpoint, now time.Duration) float64 {
	elapsed := now - cp.At
	if elapsed <= 0 {
		return 0
	}
	return float64(r.ops-cp.Ops) / elapsed.Seconds()
}

// MBPerSecSince reports payload throughput over the window since cp.
func (r *Runner) MBPerSecSince(cp Checkpoint, now time.Duration) float64 {
	elapsed := now - cp.At
	if elapsed <= 0 {
		return 0
	}
	return float64(r.bytes-cp.Bytes) / (1 << 20) / elapsed.Seconds()
}

// Ops reports completed operations.
func (r *Runner) Ops() int64 { return r.ops }

// Bytes reports payload bytes moved.
func (r *Runner) Bytes() int64 { return r.bytes }

// Latency returns the operation latency histogram.
func (r *Runner) Latency() *metrics.Histogram { return r.lat }

// Container returns the container under test.
func (r *Runner) Container() *guest.Container { return r.container }

// OpsPerSec reports throughput in operations per virtual second since
// start.
func (r *Runner) OpsPerSec(now time.Duration) float64 {
	elapsed := now - r.started
	if elapsed <= 0 {
		return 0
	}
	return float64(r.ops) / elapsed.Seconds()
}

// MBPerSec reports payload throughput in MiB per virtual second.
func (r *Runner) MBPerSec(now time.Duration) float64 {
	elapsed := now - r.started
	if elapsed <= 0 {
		return 0
	}
	return float64(r.bytes) / (1 << 20) / elapsed.Seconds()
}

// newZipf builds the skewed file selector the Filebench profiles use.
func newZipf(rng *rand.Rand, n int) *rand.Zipf {
	if n < 1 {
		n = 1
	}
	return rand.NewZipf(rng, 1.2, 1, uint64(n-1))
}

// --- Webserver ---------------------------------------------------------------

// WebserverConfig sizes the Filebench webserver profile: whole-file reads
// over a zipf-popular file set plus a log append every 10th operation.
type WebserverConfig struct {
	Files      int
	MeanBlocks int64 // mean file size in blocks
	// AnonBytes is the server processes' anonymous footprint.
	AnonBytes int64
	Think     time.Duration
}

// DefaultWebserver mirrors the scaled-down geometry used in the
// experiments: ~2000 files averaging 128 KiB (≈256 MiB set).
func DefaultWebserver() WebserverConfig {
	return WebserverConfig{Files: 2000, MeanBlocks: 32, Think: 400 * time.Microsecond}
}

// Webserver is the Filebench webserver profile.
type Webserver struct {
	cfg     WebserverConfig
	rng     *rand.Rand
	fileset *fsmodel.FileSet
	logFile *fsmodel.File
	opCount int64
}

var _ Profile = (*Webserver)(nil)

// NewWebserver builds the profile; rng must come from the engine.
func NewWebserver(cfg WebserverConfig, rng *rand.Rand) *Webserver {
	return &Webserver{cfg: cfg, rng: rng}
}

// Name implements Profile.
func (w *Webserver) Name() string { return "webserver" }

// Prepare implements Profile.
func (w *Webserver) Prepare(now time.Duration, c *guest.Container) {
	if w.cfg.AnonBytes > 0 {
		c.GrowAnon(now, w.cfg.AnonBytes/fsmodel.BlockSize)
	}
	alloc := c.VM().Allocator()
	w.fileset = fsmodel.NewFileSet("webroot", alloc, w.cfg.Files,
		fsmodel.SizeDist{MeanBlocks: w.cfg.MeanBlocks, Spread: w.cfg.MeanBlocks / 2}, w.rng)
	w.logFile = alloc.Alloc(1)
}

// Step implements Profile: read one whole uniformly-selected file (the
// Filebench default distribution); every 10th operation appends 16 KiB to
// the web log.
func (w *Webserver) Step(now time.Duration, c *guest.Container, _ int) (time.Duration, int64) {
	f := w.fileset.File(w.rng.Intn(w.fileset.Count()))
	lat := c.Read(now, f, 0, f.Blocks)
	bytes := f.Size()
	w.opCount++
	if w.opCount%10 == 0 {
		w.logFile.Blocks += 4
		start := w.logFile.Blocks - 4
		lat += c.Write(now+lat, w.logFile, start, 4)
		bytes += 4 * fsmodel.BlockSize
	}
	return lat + w.cfg.Think, bytes
}

// --- Webproxy ----------------------------------------------------------------

// WebproxyConfig sizes the Filebench webproxy profile: zipf reads over a
// churning set of small cached objects.
type WebproxyConfig struct {
	Files      int
	MeanBlocks int64
	Think      time.Duration
}

// DefaultWebproxy returns the scaled default: 4000 files of 16-48 KiB.
func DefaultWebproxy() WebproxyConfig {
	return WebproxyConfig{Files: 4000, MeanBlocks: 8, Think: 600 * time.Microsecond}
}

// Webproxy is the Filebench webproxy profile.
type Webproxy struct {
	cfg     WebproxyConfig
	rng     *rand.Rand
	fileset *fsmodel.FileSet
}

var _ Profile = (*Webproxy)(nil)

// NewWebproxy builds the profile.
func NewWebproxy(cfg WebproxyConfig, rng *rand.Rand) *Webproxy {
	return &Webproxy{cfg: cfg, rng: rng}
}

// Name implements Profile.
func (p *Webproxy) Name() string { return "webproxy" }

// Prepare implements Profile.
func (p *Webproxy) Prepare(_ time.Duration, c *guest.Container) {
	p.fileset = fsmodel.NewFileSet("proxycache", c.VM().Allocator(), p.cfg.Files,
		fsmodel.SizeDist{MeanBlocks: p.cfg.MeanBlocks, Spread: p.cfg.MeanBlocks / 2}, p.rng)
}

// Step implements Profile: one proxy loop — evict+refill one cached
// object (delete, recreate, write) and serve five uniformly-selected
// reads (the Filebench default distribution).
func (p *Webproxy) Step(now time.Duration, c *guest.Container, _ int) (time.Duration, int64) {
	var (
		lat   time.Duration
		bytes int64
	)
	victim := p.rng.Intn(p.fileset.Count())
	old, created := p.fileset.Replace(victim, c.VM().Allocator(),
		fsmodel.SizeDist{MeanBlocks: p.cfg.MeanBlocks, Spread: p.cfg.MeanBlocks / 2}, p.rng)
	lat += c.Delete(now+lat, old)
	lat += c.Write(now+lat, created, 0, created.Blocks)
	bytes += created.Size()
	for i := 0; i < 5; i++ {
		f := p.fileset.File(p.rng.Intn(p.fileset.Count()))
		lat += c.Read(now+lat, f, 0, f.Blocks)
		bytes += f.Size()
	}
	return lat + p.cfg.Think, bytes
}

// --- Varmail (the paper's Mail workload) --------------------------------------

// VarmailConfig sizes the Filebench varmail profile: small mail files with
// fsync-heavy delivery.
type VarmailConfig struct {
	Files      int
	MeanBlocks int64
	Think      time.Duration
}

// DefaultVarmail returns the scaled default: 4000 files of ~16 KiB.
func DefaultVarmail() VarmailConfig {
	return VarmailConfig{Files: 4000, MeanBlocks: 4, Think: 200 * time.Microsecond}
}

// Varmail is the Filebench varmail profile.
type Varmail struct {
	cfg     VarmailConfig
	rng     *rand.Rand
	fileset *fsmodel.FileSet
}

var _ Profile = (*Varmail)(nil)

// NewVarmail builds the profile.
func NewVarmail(cfg VarmailConfig, rng *rand.Rand) *Varmail {
	return &Varmail{cfg: cfg, rng: rng}
}

// Name implements Profile.
func (v *Varmail) Name() string { return "varmail" }

// Prepare implements Profile.
func (v *Varmail) Prepare(_ time.Duration, c *guest.Container) {
	v.fileset = fsmodel.NewFileSet("mailbox", c.VM().Allocator(), v.cfg.Files,
		fsmodel.SizeDist{MeanBlocks: v.cfg.MeanBlocks, Spread: v.cfg.MeanBlocks / 2}, v.rng)
}

// Step implements Profile: the varmail flow — delete a mail, deliver a
// new one (write+fsync), read one, then append+fsync+reread another.
func (v *Varmail) Step(now time.Duration, c *guest.Container, _ int) (time.Duration, int64) {
	var (
		lat   time.Duration
		bytes int64
	)
	dist := fsmodel.SizeDist{MeanBlocks: v.cfg.MeanBlocks, Spread: v.cfg.MeanBlocks / 2}
	// Delete + deliver.
	victim := v.rng.Intn(v.fileset.Count())
	old, created := v.fileset.Replace(victim, c.VM().Allocator(), dist, v.rng)
	lat += c.Delete(now+lat, old)
	lat += c.Write(now+lat, created, 0, created.Blocks)
	lat += c.Fsync(now+lat, created)
	bytes += created.Size()
	// Read one mail.
	f := v.fileset.File(v.rng.Intn(v.fileset.Count()))
	lat += c.Read(now+lat, f, 0, f.Blocks)
	bytes += f.Size()
	// Append + fsync + reread.
	idx := v.rng.Intn(v.fileset.Count())
	v.fileset.Append(idx, 1)
	af := v.fileset.File(idx)
	lat += c.Write(now+lat, af, af.Blocks-1, 1)
	lat += c.Fsync(now+lat, af)
	lat += c.Read(now+lat, af, 0, af.Blocks)
	bytes += af.Size() + fsmodel.BlockSize
	return lat + v.cfg.Think, bytes
}

// --- Videoserver ---------------------------------------------------------------

// VideoserverConfig sizes the Filebench videoserver profile: a small hot
// set of actively served videos streamed in big chunks, plus the
// vidwriter flow continuously writing new videos — a heavy one-way write
// stream whose page cache spill floods the second-chance cache (the
// dominant cache pressure in the paper's evaluation).
type VideoserverConfig struct {
	ActiveVideos  int   // hot set served to clients
	PassiveVideos int   // videos the vidwriter cycles over
	VideoBlocks   int64 // per video
	ChunkBlocks   int64 // per I/O operation
	// WriterThreads dedicates this many threads to the vidwriter flow
	// (they only write); the rest serve streams. Filebench's videoserver
	// runs the writer as its own thread, decoupled from serving rate.
	WriterThreads int
	// WriterThink is the writer's per-chunk pause, bounding its rate.
	WriterThink time.Duration
	// PassiveReadFrac is the fraction of streams served from
	// recently-written videos (re-reading the write spill).
	PassiveReadFrac float64
	Think           time.Duration
}

// DefaultVideoserver returns the scaled default: 2 hot videos of 128 MiB
// served from memory, a writer cycling over 8 passive videos.
func DefaultVideoserver() VideoserverConfig {
	return VideoserverConfig{
		ActiveVideos:    2,
		PassiveVideos:   8,
		VideoBlocks:     32768, // 128 MiB
		ChunkBlocks:     64,    // 256 KiB
		WriterThreads:   1,
		WriterThink:     25 * time.Millisecond, // ~10 MB/s new content
		PassiveReadFrac: 0.1,
		Think:           time.Millisecond,
	}
}

// Videoserver is the Filebench videoserver profile.
type Videoserver struct {
	cfg     VideoserverConfig
	rng     *rand.Rand
	active  *fsmodel.FileSet
	passive *fsmodel.FileSet
	zipf    *rand.Zipf // popularity of active videos
	// per-thread streaming positions over the active set
	posFile  map[int]int
	posBlock map[int]int64
	ops      int64
	// vidwriter cursor over the passive set
	writeFile  int
	writeBlock int64
}

var _ Profile = (*Videoserver)(nil)

// NewVideoserver builds the profile.
func NewVideoserver(cfg VideoserverConfig, rng *rand.Rand) *Videoserver {
	if cfg.PassiveVideos < 1 {
		cfg.PassiveVideos = 1
	}
	return &Videoserver{
		cfg:      cfg,
		rng:      rng,
		posFile:  make(map[int]int),
		posBlock: make(map[int]int64),
	}
}

// Name implements Profile.
func (v *Videoserver) Name() string { return "videoserver" }

// Prepare implements Profile.
func (v *Videoserver) Prepare(_ time.Duration, c *guest.Container) {
	alloc := c.VM().Allocator()
	v.active = fsmodel.NewFileSet("videos-active", alloc, v.cfg.ActiveVideos,
		fsmodel.SizeDist{MeanBlocks: v.cfg.VideoBlocks}, v.rng)
	v.passive = fsmodel.NewFileSet("videos-passive", alloc, v.cfg.PassiveVideos,
		fsmodel.SizeDist{MeanBlocks: v.cfg.VideoBlocks}, v.rng)
	v.zipf = newZipf(v.rng, v.cfg.ActiveVideos)
}

// Step implements Profile: writer threads write the next chunk of a
// passive video at their own bounded rate; serving threads stream the
// next chunk of their current active video (hot, memory-resident), with
// a fraction of streams re-reading the most recently written video.
func (v *Videoserver) Step(now time.Duration, c *guest.Container, thread int) (time.Duration, int64) {
	v.ops++
	bytes := v.cfg.ChunkBlocks * fsmodel.BlockSize
	if thread < v.cfg.WriterThreads {
		f := v.passive.File(v.writeFile)
		if v.writeBlock+v.cfg.ChunkBlocks > f.Blocks {
			v.writeFile = (v.writeFile + 1) % v.passive.Count()
			v.writeBlock = 0
			f = v.passive.File(v.writeFile)
		}
		lat := c.Write(now, f, v.writeBlock, v.cfg.ChunkBlocks)
		v.writeBlock += v.cfg.ChunkBlocks
		return lat + v.cfg.WriterThink, bytes
	}
	if v.cfg.PassiveReadFrac > 0 && v.rng.Float64() < v.cfg.PassiveReadFrac {
		// Re-read a chunk of the most recently completed video: fresh
		// content is what clients ask for, and it is still resident in
		// the second-chance cache.
		prev := v.writeFile - 1
		if prev < 0 {
			prev = v.passive.Count() - 1
		}
		f := v.passive.File(prev)
		maxChunk := f.Blocks / v.cfg.ChunkBlocks
		if maxChunk < 1 {
			maxChunk = 1
		}
		start := v.rng.Int63n(maxChunk) * v.cfg.ChunkBlocks
		lat := c.Read(now, f, start, v.cfg.ChunkBlocks)
		return lat + v.cfg.Think, bytes
	}
	fi, ok := v.posFile[thread]
	if !ok {
		fi = int(v.zipf.Uint64())
		v.posFile[thread] = fi
	}
	f := v.active.File(fi)
	pos := v.posBlock[thread]
	if pos+v.cfg.ChunkBlocks > f.Blocks {
		// End of stream: next video, zipf-popular.
		v.posFile[thread] = int(v.zipf.Uint64())
		v.posBlock[thread] = 0
		f = v.active.File(v.posFile[thread])
		pos = 0
	}
	lat := c.Read(now, f, pos, v.cfg.ChunkBlocks)
	v.posBlock[thread] = pos + v.cfg.ChunkBlocks
	return lat + v.cfg.Think, bytes
}
