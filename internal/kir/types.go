// Package kir defines the kernel intermediate representation used throughout
// oclfpga. It plays the role of OpenCL kernel source in the original paper: a
// program is a set of kernels (single-task, NDRange, or autorun/persistent)
// connected by Altera-style channels and optionally calling HDL library
// functions. Kernels are built with the fluent Builder API, validated, and
// then handed to internal/hls for pipeline synthesis.
package kir

import "fmt"

// Type is the element type of a value, channel, or array. The simulator
// computes everything in int64; Type drives width accounting in the area
// model and overflow/truncation semantics.
type Type int

// Supported element types.
const (
	I32 Type = iota // 32-bit signed integer (OpenCL int)
	I64             // 64-bit signed integer (OpenCL long / ulong payloads)
	U16             // 16-bit unsigned (ushort tags in watchpoint records)
	U8              // 8-bit unsigned (uchar, e.g. compute-unit ids)
	B1              // single-bit boolean (predicates, channel ok flags)
)

// Bits reports the bit width of the type, used by the area model.
func (t Type) Bits() int {
	switch t {
	case I32:
		return 32
	case I64:
		return 64
	case U16:
		return 16
	case U8:
		return 8
	case B1:
		return 1
	}
	return 0
}

// Truncate wraps v to the range of t, mirroring hardware register widths.
func (t Type) Truncate(v int64) int64 {
	switch t {
	case I32:
		return int64(int32(v))
	case I64:
		return v
	case U16:
		return int64(uint16(v))
	case U8:
		return int64(uint8(v))
	case B1:
		if v != 0 {
			return 1
		}
		return 0
	}
	return v
}

func (t Type) String() string {
	switch t {
	case I32:
		return "int"
	case I64:
		return "long"
	case U16:
		return "ushort"
	case U8:
		return "uchar"
	case B1:
		return "bool"
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// Mode distinguishes how a kernel is launched and parallelized, mirroring the
// Altera OpenCL kernel flavours discussed in the paper.
type Mode int

const (
	// SingleTask kernels run one logical thread; the compiler extracts
	// loop-level parallelism by pipelining loop iterations (paper §3.2,
	// Listing 6).
	SingleTask Mode = iota
	// NDRange kernels run one logical thread per work-item; the hardware
	// pipelines work-items through the datapath (paper §3.2, Listing 7).
	NDRange
	// Autorun kernels start with the FPGA image and run forever without a
	// host launch — the paper's persistent kernels (Listings 1, 5, 8).
	Autorun
)

func (m Mode) String() string {
	switch m {
	case SingleTask:
		return "single-task"
	case NDRange:
		return "ndrange"
	case Autorun:
		return "autorun"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// OpKind enumerates the three-address operations a kernel body may contain.
type OpKind int

// Operation kinds. Arithmetic and comparison ops take value operands and
// produce one value. Memory and channel ops reference a Param/LocalArray or
// Chan respectively.
const (
	OpConst OpKind = iota // materialize Const into Dst

	OpAdd // Dst = Args[0] + Args[1]
	OpSub // Dst = Args[0] - Args[1]
	OpMul // Dst = Args[0] * Args[1]
	OpDiv // Dst = Args[0] / Args[1] (0 if divisor is 0, like undefined HW)
	OpMod // Dst = Args[0] % Args[1] (0 if divisor is 0)
	OpAnd // Dst = Args[0] & Args[1]
	OpOr  // Dst = Args[0] | Args[1]
	OpXor // Dst = Args[0] ^ Args[1]
	OpShl // Dst = Args[0] << Args[1]
	OpShr // Dst = Args[0] >> Args[1]

	OpCmpLT // Dst = Args[0] < Args[1]
	OpCmpLE // Dst = Args[0] <= Args[1]
	OpCmpEQ // Dst = Args[0] == Args[1]
	OpCmpNE // Dst = Args[0] != Args[1]
	OpCmpGT // Dst = Args[0] > Args[1]
	OpCmpGE // Dst = Args[0] >= Args[1]

	OpSelect // Dst = Args[0] != 0 ? Args[1] : Args[2]

	OpLoad       // Dst = Arr[Args[0]] (global memory, via an LSU)
	OpStore      // Arr[Args[0]] = Args[1] (global memory, via an LSU)
	OpLocalLoad  // Dst = Local[Args[0]] (on-chip RAM, fixed latency)
	OpLocalStore // Local[Args[0]] = Args[1]

	OpChanRead    // Dst = read_channel_altera(Ch) — blocking
	OpChanWrite   // write_channel_altera(Ch, Args[0]) — blocking
	OpChanReadNB  // Dst = read_channel_nb_altera(Ch, &ok); OkDst = ok
	OpChanWriteNB // OkDst = write_channel_nb_altera(Ch, Args[0])

	OpGlobalID  // Dst = get_global_id(Dim)
	OpComputeID // Dst = get_compute_id(Dim) — replication index

	OpCall  // Dst = Lib(Args...) — HDL library function, e.g. get_time
	OpFence // mem_fence(CLK_CHANNEL_MEM_FENCE): ordering barrier

	OpIBufLogic // ibuffer logic-function block intrinsic (internal/core)
)

var opNames = map[OpKind]string{
	OpConst: "const", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpMod: "mod", OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl",
	OpShr: "shr", OpCmpLT: "cmp.lt", OpCmpLE: "cmp.le", OpCmpEQ: "cmp.eq",
	OpCmpNE: "cmp.ne", OpCmpGT: "cmp.gt", OpCmpGE: "cmp.ge",
	OpSelect: "select", OpLoad: "load", OpStore: "store",
	OpLocalLoad: "local.load", OpLocalStore: "local.store",
	OpChanRead: "chan.read", OpChanWrite: "chan.write",
	OpChanReadNB: "chan.read.nb", OpChanWriteNB: "chan.write.nb",
	OpGlobalID: "global.id", OpComputeID: "compute.id", OpCall: "call",
	OpFence: "fence", OpIBufLogic: "ibuf.logic",
}

func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// IsALU reports whether the op is pure arithmetic, logic, compare or select
// on its value operands (OpConst through OpSelect).
func (k OpKind) IsALU() bool { return k >= OpConst && k <= OpSelect }

// IsChannelOp reports whether the op touches a channel endpoint.
func (k OpKind) IsChannelOp() bool {
	switch k {
	case OpChanRead, OpChanWrite, OpChanReadNB, OpChanWriteNB:
		return true
	}
	return false
}

// IsChannelRead reports whether the op is a channel read (blocking or not).
func (k OpKind) IsChannelRead() bool {
	return k == OpChanRead || k == OpChanReadNB
}

// IsGlobalMemOp reports whether the op accesses global memory through an LSU.
func (k OpKind) IsGlobalMemOp() bool { return k == OpLoad || k == OpStore }

// HasDst reports whether the op defines a destination value.
func (k OpKind) HasDst() bool {
	switch k {
	case OpStore, OpLocalStore, OpChanWrite, OpFence:
		return false
	case OpChanWriteNB:
		return false // result goes to OkDst, not Dst
	}
	return true
}
