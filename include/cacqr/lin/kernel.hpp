#pragma once
/// \file kernel.hpp
/// \brief Packed, register-tiled GEMM micro-kernel core (BLIS-style) with
///        runtime-dispatched SIMD micro-kernel variants.
///
/// Every level-3 kernel in cacqr::lin (gemm in all four transpose cases,
/// gram, syrk_nt, the right-side trmm, and the off-diagonal updates of the
/// blocked trmm/trsm recursions) funnels into the single driver declared
/// here.
/// The driver packs operand panels into contiguous, zero-padded buffers and
/// updates a fixed MR x NR register block over the K dimension, with
/// three-level MC/NC/KC cache blocking around it.  See DESIGN.md section 2
/// for the architecture, section 3 for the thread-parallel decomposition,
/// and section 7 for how to re-tune the block sizes.
///
/// The MR x NR register block itself is **multi-versioned**: one binary
/// carries a family of explicitly vectorized micro-kernels (AVX2 8x6 FMA,
/// AVX-512 16x14, NEON 8x6) next to the always-available generic kernel,
/// each compiled in its own translation unit with per-file ISA flags.  A
/// one-time CPU probe (cpuid / architecture baseline) selects the variant
/// at first use -- overridable with CACQR_KERNEL -- and the only dynamic
/// indirection is one function pointer per MR x NR tile: the MC/NC/KC
/// blocking, cooperative packing, arenas, and the one-owner threading rule
/// are shared verbatim across variants, parameterized by the variant's
/// block geometry.
///
/// The driver is thread-parallel: when the calling thread's worker budget
/// (lin/parallel.hpp, CACQR_THREADS) exceeds one and the product is large
/// enough, each (jc, pc) step packs the shared op(B) panel cooperatively
/// and splits the ic/jr tile space across the team.  Every C micro-tile has
/// exactly one owner and the pc reduction loop is never split, so results
/// are bitwise identical across thread counts -- per variant.  Different
/// variants may round differently (FMA contraction, block-size-dependent
/// accumulation splits); switching variants is a numerical event on the
/// order of the unit roundoff, never a correctness one.
///
/// Packing buffers are persistent per-thread arenas (grow-only, reused
/// across calls): steady-state kernel invocations of a given shape perform
/// no allocation.  `arena_stats()` exposes process-wide counters so tests
/// and benches can assert that.
///
/// Functions in this header perform NO flop accounting: the public BLAS
/// wrappers in blas.hpp charge closed-form flop counts (DESIGN.md section 1)
/// so the machine model's gamma tally is independent of blocking strategy,
/// of the thread count, and of the selected variant.

#include <vector>

#include "cacqr/lin/blas.hpp"
#include "cacqr/lin/matrix.hpp"
#include "cacqr/lin/matrix_f.hpp"

namespace cacqr::lin::kernel {

// ------------------------------------------- generic-variant block sizes
//
// The geometry of the generic (and AVX2) variant; other variants carry
// their own MR/NR/MC/KC/NC in their translation units and the driver reads
// the active variant's geometry at run time.  Kept as named constants
// because they document the tuning contract (DESIGN.md section 7) and the
// lin/ tests sweep shapes straddling these boundaries.
//
// Register micro-tile: MR x NR accumulators live in registers across the
// whole K loop.  8 x 6 doubles = 12 AVX2 ymm accumulators, leaving
// registers for the A column load and B broadcasts.
inline constexpr i64 MR = 8;
inline constexpr i64 NR = 6;

// Cache blocking: a KC x NR sliver of packed B stays in L1 across the ir
// loop, the MC x KC packed A block stays in L2, and the KC x NC packed B
// panel stays in L3.  Defaults target ~32K L1 / ~1M L2 per core.
inline constexpr i64 MC = 144;  // multiple of MR
inline constexpr i64 KC = 256;
inline constexpr i64 NC = 3072;  // multiple of NR

// fp32 lane geometry of the generic (and AVX2/NEON) variant: twice the
// register-tile rows at the same register count (each SIMD lane carries
// eight floats instead of four doubles) and the same cache-block BYTE
// budgets as the fp64 geometry -- MC32 x KC32 floats occupies exactly the
// bytes MC x KC doubles does, so both lanes share the packing arenas and
// the DESIGN.md section 7 working-set math.  The AVX-512 fp32 variant
// carries its own 32 x 14 geometry in its translation unit.
inline constexpr i64 MR32 = 16;
inline constexpr i64 NR32 = 6;
inline constexpr i64 MC32 = 288;   // multiple of MR32
inline constexpr i64 KC32 = 256;
inline constexpr i64 NC32 = 6144;  // multiple of NR32

// ------------------------------------------------------- kernel variants

/// The micro-kernel family.  `generic` is the portable baseline (GCC/Clang
/// vector extensions with a scalar fallback) and is always executable;
/// the SIMD variants are compiled into every binary (per-file ISA flags)
/// but only executable where the CPU probe says so.
enum class Variant { generic = 0, avx2 = 1, avx512 = 2, neon = 3 };

/// What a CACQR_KERNEL value asks for: a specific variant, automatic
/// selection, or nonsense (which the dispatcher refuses loudly rather
/// than silently falling back -- a forced kernel must never be guessed).
enum class VariantChoice { automatic, generic, avx2, avx512, neon, invalid };

/// Parses a kernel spec: "generic" | "avx2" | "avx512" | "neon" |
/// "auto" -> the matching choice; nullptr and "" -> automatic; anything
/// else -> invalid.  Exposed for testing; the process-wide dispatch below
/// parses the CACQR_KERNEL environment variable once with exactly this
/// rule.
[[nodiscard]] VariantChoice parse_kernel_variant(const char* spec) noexcept;

/// Stable lowercase name of a variant ("generic", "avx2", ...), matching
/// the CACQR_KERNEL spelling and the tune:: profile/plan serialization.
[[nodiscard]] const char* variant_name(Variant v) noexcept;

/// Whether `v` is executable on this host: its translation unit carries a
/// real micro-kernel for this architecture AND the CPU probe (cpuid on
/// x86, baseline ASIMD on AArch64) reports the required features.
/// `generic` is always supported.
[[nodiscard]] bool variant_supported(Variant v) noexcept;

/// Every executable variant, in the fixed order generic, avx2, avx512,
/// neon.  Never empty.
[[nodiscard]] std::vector<Variant> supported_variants();

/// The variant the driver currently dispatches to.  The first call
/// resolves CACQR_KERNEL: a forced variant that is unsupported on this
/// host (or a malformed value) throws cacqr::Error with the supported
/// list; `auto` (the default) picks the widest supported SIMD variant
/// (avx512 > avx2 > neon > generic).
[[nodiscard]] Variant active_variant();

/// Overrides the active variant process-wide and returns the previous
/// one; throws cacqr::Error when `v` is not supported on this host.  For
/// tests and the tune:: calibrator's per-variant sweeps -- do not call
/// while kernels are in flight on other threads (the switch is atomic,
/// but a factorization that changes variant mid-run mixes roundings).
Variant set_kernel_variant(Variant v);

/// Which MR x NR micro-tiles of C the driver computes.  `Lower` computes
/// every tile that intersects the lower triangle (i >= j), `Upper` every
/// tile that intersects the upper triangle (i <= j); tiles strictly on the
/// other side of the diagonal are skipped.  Entries of a diagonal-crossing
/// tile that lie outside the requested triangle receive well-defined but
/// meaningless accumulated values -- callers (gram/syrk_nt) overwrite them
/// by mirroring.  Used to compute only the touched triangle of a symmetric
/// product at micro-tile granularity.
enum class TileFilter { Full, Lower, Upper };

/// C += alpha * op(A) * op(B), all four transpose combinations, through the
/// packed micro-kernel.  C is NOT scaled by beta (callers pre-scale) and no
/// flops are charged.  Shapes must already be validated by the caller:
/// op(A) is c.rows x k, op(B) is k x c.cols.
void gemm_accumulate(Trans ta, Trans tb, double alpha, ConstMatrixView a,
                     ConstMatrixView b, MatrixView c,
                     TileFilter filter = TileFilter::Full);

/// C = alpha * A * op(T) for a square triangle T (uplo/trans/diag as in
/// lin::trmm), through the same driver told that op(B) = op(T) is
/// triangular.  op(T) is packed from the referenced triangle only (the
/// other triangle is packed as zeros, the diagonal as ones for
/// Diag::Unit), each NR column panel's contraction is clipped to the rows
/// of op(T) that are not zero, and C is overwritten, never read, so it
/// may be uninitialized.  The order of T must not exceed
/// `trmm_sweep_order()`, so the product is a single contraction block.
/// C may be A itself (same data and leading dimension): each MC row block
/// of A is packed before its rows are written.  Otherwise C must not
/// overlap A or T.  alpha must be nonzero (callers zero-fill instead).
void trmm_sweep(Uplo uplo, Trans trans, Diag diag, double alpha,
                ConstMatrixView t, ConstMatrixView a, MatrixView c);

/// Largest triangle order `trmm_sweep` accepts under the active variant:
/// its contraction block KC (bounded by NC).
[[nodiscard]] i64 trmm_sweep_order();

/// The fp32 lane of the same driver: identical packing/blocking/threading
/// machinery instantiated at float width, dispatching to the active
/// variant's fp32 micro-kernel (every variant carries one; the fp32 twin
/// of a variant is executable exactly when the variant is).  Shares the
/// per-thread packing arenas with the fp64 lane (they are byte pools) and
/// obeys the same one-owner determinism rule: results are bitwise
/// identical across thread budgets, per variant.
void gemm_accumulate_f32(Trans ta, Trans tb, float alpha, ConstMatrixFView a,
                         ConstMatrixFView b, MatrixFView c,
                         TileFilter filter = TileFilter::Full);

/// Process-wide statistics over every thread's packing arenas.  Arenas are
/// thread-local and grow-only, so `allocations` advancing between two
/// same-shape kernel calls means the arena reuse contract broke.
struct ArenaStats {
  i64 allocations = 0;  ///< arena grow events since process start
  i64 bytes_in_use = 0;  ///< bytes currently held across all live arenas
  i64 high_water_bytes = 0;  ///< maximum of bytes_in_use ever observed
};

[[nodiscard]] ArenaStats arena_stats() noexcept;

/// Statistics attributed to one task group (parallel::set_task_group):
/// each arena's capacity is charged to the group that last grew it --
/// including growth on pool workers, which adopt their owner's group per
/// region -- so when many drivers share the process (the serve/
/// scheduler), a lane's growth and footprint are visible in isolation.
/// `bytes_in_use`/`high_water_bytes` are per-group charges (summing the
/// per-group values over all groups equals the process-wide
/// bytes_in_use); `allocations` advancing for a warm group's repeated
/// same-shape jobs means the reuse contract broke for that lane.  An
/// unknown group reads as all zeros.
[[nodiscard]] ArenaStats arena_stats(int group) noexcept;

}  // namespace cacqr::lin::kernel
