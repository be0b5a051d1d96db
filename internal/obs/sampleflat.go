package obs

import (
	"sync"

	"oclfpga/internal/channel"
	"oclfpga/internal/mem"
)

// Flat sample storage: metrics samples get the same treatment as events —
// the hot path packs counters into pointer-free word chunks and Sample
// values exist only when a consumer (Series, a sink, the JSON codecs) asks.
// A recorded sample is a header item followed by one item per channel/LSU
// site/local memory, each a fixed number of words keyed by a tag in the
// first word's low bits. Items never span chunks, so decoding is a linear
// walk that needs no reassembly.
//
// Item layouts (identifiers are intern-table IDs):
//
//	header  [tag] [cycle]                                         2 words
//	chan    [tag | name<<32] [len] [6 channel.Stats fields]       8 words
//	lsu     [tag | isStore<<3 | unit<<32] [array | kind<<32]
//	        [7 mem.LSUStats fields]                               9 words
//	local   [tag | name<<32] [reads] [writes]                     3 words

const (
	sampTagHeader = iota
	sampTagChan
	sampTagLSU
	sampTagLocal
)

const (
	sampTagMask  = 7
	sampStoreBit = 1 << 3
)

// sampItemWords maps an item tag to its width in words.
var sampItemWords = [4]int{sampTagHeader: 2, sampTagChan: 8, sampTagLSU: 9, sampTagLocal: 3}

// wordStream is an append-only sequence of uint64 words in fixed-size
// chunks: no doubling copies, no pointers for the GC to scan, every byte
// allocated exactly once. The first chunk is small so barely-sampled runs
// stay cheap.
type wordStream struct {
	chunks [][]uint64 // the last chunk is the write head
	n      int        // total words written
}

const (
	sampChunkFirst = 256  // 2 KiB
	sampChunkWords = 4096 // 32 KiB
)

// sampChunkPool recycles full-size sample chunks across recorders (see
// Recorder.Release). Only full-size chunks are pooled; the small first chunk
// is cheap enough to drop. Item words are always written in full before any
// read, so recycled chunks need no clearing.
var sampChunkPool = sync.Pool{New: func() any { return make([]uint64, 0, sampChunkWords) }}

// grab returns the next n words of the stream for the caller to fill. The
// run is contiguous: when the head chunk cannot fit n words it is sealed at
// its current length and a fresh chunk opened (n must stay well under the
// chunk size, which every item layout does).
func (ws *wordStream) grab(n int) []uint64 {
	last := len(ws.chunks) - 1
	if last < 0 || cap(ws.chunks[last])-len(ws.chunks[last]) < n {
		var c []uint64
		if ws.n == 0 {
			c = make([]uint64, 0, sampChunkFirst)
		} else {
			c = sampChunkPool.Get().([]uint64)
		}
		ws.chunks = append(ws.chunks, c)
		last++
	}
	c := ws.chunks[last]
	l := len(c)
	ws.chunks[last] = c[: l+n : cap(c)]
	ws.n += n
	return ws.chunks[last][l:]
}

// sampCursor walks a wordStream item by item.
type sampCursor struct {
	ws         *wordStream
	chunk, off int
}

// next returns the next item's words, or nil at end of stream.
func (c *sampCursor) next() []uint64 {
	for c.chunk < len(c.ws.chunks) {
		ch := c.ws.chunks[c.chunk]
		if c.off >= len(ch) {
			c.chunk++
			c.off = 0
			continue
		}
		n := sampItemWords[ch[c.off]&sampTagMask]
		w := ch[c.off : c.off+n]
		c.off += n
		return w
	}
	return nil
}

// SampleWriter appends one metrics sample item by item, straight into the
// recorder's flat sample stream — the allocation-free counterpart of
// building a Sample value for AddSample. Obtain one from BeginSample, add
// entries, then Commit. The zero SampleWriter (returned once the recorder
// is finalized) ignores everything.
type SampleWriter struct {
	r          *Recorder
	chunk, off int // position of the sample's header item
}

// BeginSample starts a sample at the given cycle. On a finalized recorder
// the sample is refused and counted as dropped — matching AddSample — and
// the returned writer is inert.
func (r *Recorder) BeginSample(cycle int64) SampleWriter {
	if r.finalized {
		r.dropped++
		return SampleWriter{}
	}
	w := r.sampStream.grab(2)
	w[0] = sampTagHeader
	w[1] = uint64(cycle)
	chunk := len(r.sampStream.chunks) - 1
	return SampleWriter{r: r, chunk: chunk, off: len(r.sampStream.chunks[chunk]) - 2}
}

// Channel adds one channel's counters to the sample.
func (sw SampleWriter) Channel(name ID, length int, st channel.Stats) {
	if sw.r == nil {
		return
	}
	putChan(sw.r.sampStream.grab(sampItemWords[sampTagChan]), name, length, st)
}

func putChan(w []uint64, name ID, length int, st channel.Stats) {
	w[0] = sampTagChan | uint64(name)<<32
	w[1] = uint64(length)
	w[2] = uint64(st.Writes)
	w[3] = uint64(st.Reads)
	w[4] = uint64(st.WriteStalls)
	w[5] = uint64(st.ReadStalls)
	w[6] = uint64(st.Dropped)
	w[7] = uint64(st.MaxOccupancy)
}

// LSU adds one memory access site's counters to the sample.
func (sw SampleWriter) LSU(unit, array, kind ID, isStore bool, st mem.LSUStats) {
	if sw.r == nil {
		return
	}
	putLSU(sw.r.sampStream.grab(sampItemWords[sampTagLSU]), unit, array, kind, isStore, st)
}

func putLSU(w []uint64, unit, array, kind ID, isStore bool, st mem.LSUStats) {
	w[0] = sampTagLSU | uint64(unit)<<32
	if isStore {
		w[0] |= sampStoreBit
	}
	w[1] = uint64(array) | uint64(kind)<<32
	w[2] = uint64(st.Loads)
	w[3] = uint64(st.Stores)
	w[4] = uint64(st.LineFetches)
	w[5] = uint64(st.CoalesceHits)
	w[6] = uint64(st.TotalLoadLat)
	w[7] = uint64(st.MaxLoadLat)
	w[8] = uint64(st.StoreStalls)
}

// Local adds one local memory's counters to the sample.
func (sw SampleWriter) Local(name ID, reads, writes int64) {
	if sw.r == nil {
		return
	}
	putLocal(sw.r.sampStream.grab(sampItemWords[sampTagLocal]), name, reads, writes)
}

func putLocal(w []uint64, name ID, reads, writes int64) {
	w[0] = sampTagLocal | uint64(name)<<32
	w[1] = uint64(reads)
	w[2] = uint64(writes)
}

// Commit seals the sample. A configured sink receives it (materialized
// here, on the recorder's goroutine) in append order.
func (sw SampleWriter) Commit() {
	r := sw.r
	if r == nil {
		return
	}
	r.nSamples++
	r.lastSamp = int64(r.sampStream.chunks[sw.chunk][sw.off+1])
	if r.cfg.Sink != nil {
		cur := sampCursor{ws: &r.sampStream, chunk: sw.chunk, off: sw.off}
		r.emitSample(decodeSamples(r.tab.strs, cur, nil)[0])
	}
}

// decodeSamples materializes samples from cur to the end of the stream,
// appending to out, with names resolved through strs. Entry slices are nil
// when a sample recorded nothing of that kind, matching the omitempty JSON
// forms.
func decodeSamples(strs []string, cur sampCursor, out []Sample) []Sample {
	for w := cur.next(); w != nil; w = cur.next() {
		switch w[0] & sampTagMask {
		case sampTagHeader:
			out = append(out, Sample{Cycle: int64(w[1])})
		case sampTagChan:
			s := &out[len(out)-1]
			s.Channels = append(s.Channels, ChannelSample{
				Name: strs[w[0]>>32],
				Len:  int(int64(w[1])),
				Stats: channel.Stats{
					Writes: int64(w[2]), Reads: int64(w[3]),
					WriteStalls: int64(w[4]), ReadStalls: int64(w[5]),
					Dropped: int64(w[6]), MaxOccupancy: int(int64(w[7])),
				},
			})
		case sampTagLSU:
			s := &out[len(out)-1]
			s.LSUs = append(s.LSUs, LSUSample{
				Unit:    strs[w[0]>>32],
				Array:   strs[w[1]&0xffffffff],
				Kind:    strs[w[1]>>32],
				IsStore: w[0]&sampStoreBit != 0,
				LSUStats: mem.LSUStats{
					Loads: int64(w[2]), Stores: int64(w[3]),
					LineFetches: int64(w[4]), CoalesceHits: int64(w[5]),
					TotalLoadLat: int64(w[6]), MaxLoadLat: int64(w[7]),
					StoreStalls: int64(w[8]),
				},
			})
		case sampTagLocal:
			s := &out[len(out)-1]
			s.Locals = append(s.Locals, LocalSample{
				Name:  strs[w[0]>>32],
				Reads: int64(w[1]), Writes: int64(w[2]),
			})
		}
	}
	return out
}
