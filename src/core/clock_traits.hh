/**
 * @file
 * The compile-time interface the analysis engines require from a
 * clock implementation. TreeClock and VectorClock both model it;
 * the engines are templates over any model, which is how the paper's
 * "drop-in replacement" claim is realized in code.
 */

#ifndef TC_CORE_CLOCK_TRAITS_HH
#define TC_CORE_CLOCK_TRAITS_HH

#include <concepts>
#include <cstddef>
#include <vector>

#include "core/work_counters.hh"
#include "support/types.hh"

namespace tc {

/**
 * A vector-time data structure usable by the HB/SHB/MAZ engines.
 *
 * Required semantics:
 *  - get(t): current time of thread t (0 if unknown), O(1);
 *  - increment(d): advance the owning thread's entry;
 *  - join(o): pointwise maximum with o;
 *  - monotoneCopy(o): become o, given this ⊑ o;
 *  - copyCheckMonotone(o): become o with no precondition
 *    (SHB §5.1);
 *  - toVector(k): materialized vector time;
 *  - setCounters(c): attach work accounting.
 */
template <typename C>
concept ClockLike =
    std::default_initializable<C> &&
    std::constructible_from<C, Tid, std::size_t> &&
    requires(C c, const C cc, Tid t, Clk d, WorkCounters *w,
             std::size_t n) {
        { cc.get(t) } -> std::same_as<Clk>;
        { cc.localClk() } -> std::same_as<Clk>;
        { c.increment(d) };
        { c.join(cc) };
        { c.monotoneCopy(cc) };
        { c.copyCheckMonotone(cc) };
        { cc.lessThanOrEqual(cc) } -> std::same_as<bool>;
        { cc.toVector(n) } -> std::same_as<std::vector<Clk>>;
        { c.setCounters(w) };
        { C::kName } -> std::convertible_to<const char *>;
    };

/**
 * Clocks that expose a dominating root entry: rootTid() names a
 * thread whose entry bounds the whole structure whenever the clocks
 * evolved inside one analysis (direct monotonicity, paper Lemma 3).
 * TreeClock and the per-variable FlatTreeClock model this; a vector
 * clock has no such summary.
 */
template <typename C>
concept RootedClock = requires(const C cc) {
    { cc.rootTid() } -> std::same_as<Tid>;
    { cc.empty() } -> std::same_as<bool>;
};

/**
 * O(1) sufficient test that dst.join(src) would leave dst unchanged:
 * the operand is empty, or its root entry is already covered
 * (Algorithm 2, line 18 — src.localClk() <= dst.get(src.rootTid())).
 * Engines use it to skip the join call entirely on the (dominant)
 * already-covered case. The operand may be of another type than the
 * target (a thread clock joins FlatTreeClocks). Returns false
 * whenever the operand cannot answer in O(1) — vector clocks always
 * take the real join, so both backends keep identical semantics and
 * the vector-clock backend keeps its measured Θ(k) cost.
 */
template <ClockLike C, typename S = C>
inline bool
joinIsVacuous(const C &dst, const S &src)
{
    if constexpr (RootedClock<S>) {
        // rootTid() names an *internal* slot, so the probe must use
        // the raw accessor on clocks that translate external ids
        // (TreeClock with an active ThreadIdMap); for everything
        // else rawGet is get.
        if constexpr (requires(const C c, Tid t) {
                          { c.rawGet(t) } -> std::same_as<Clk>;
                      }) {
            return src.empty() ||
                   src.localClk() <= dst.rawGet(src.rootTid());
        } else {
            return src.empty() ||
                   src.localClk() <= dst.get(src.rootTid());
        }
    } else {
        (void)dst;
        (void)src;
        return false;
    }
}

} // namespace tc

#endif // TC_CORE_CLOCK_TRAITS_HH
