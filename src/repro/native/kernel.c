/* Fused popcount kernels over packed uint64 transaction sets.
 *
 * Compiled on demand by repro.native.build with the system C compiler and
 * loaded through ctypes (repro.native.api).  Everything here is exact
 * integer arithmetic over the same packed word layout that
 * repro.core.bitset produces (64 transactions per little-endian word,
 * padding bits zero), so every function is bit-identical to its numpy
 * reference path in repro/core/bitset.py.
 *
 * Weight tables are fixed-point int64 vectors laid out padded to
 * n_words * 64 entries (the layout of bitset.weight_table), with the
 * padding entries zero; the callers guarantee every partial sum stays far
 * below 2**51 (see repro.core.search._Quantized), so the int64
 * accumulators can never overflow and the results convert exactly to the
 * float64 integers the numpy paths carry.
 *
 * No external dependencies, C99, single translation unit.
 */

#include <stddef.h>
#include <stdint.h>

#if defined(__GNUC__) || defined(__clang__)
#define REPRO_POPCOUNT(x) ((int64_t)__builtin_popcountll(x))
#define REPRO_CTZ(x) ((int64_t)__builtin_ctzll(x))
#define REPRO_EXPORT __attribute__((visibility("default")))
#else
static int64_t repro_popcount_fallback(uint64_t x) {
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int64_t)((x * 0x0101010101010101ULL) >> 56);
}
static int64_t repro_ctz_fallback(uint64_t x) {
    int64_t n = 0;
    while (!(x & 1ULL)) { x >>= 1; ++n; }
    return n;
}
#define REPRO_POPCOUNT(x) repro_popcount_fallback(x)
#define REPRO_CTZ(x) repro_ctz_fallback(x)
#define REPRO_EXPORT
#endif

/* Bumped whenever an exported signature changes; repro.native.build folds
 * it into the cache key so a stale shared object is never reused. */
REPRO_EXPORT int64_t repro_abi_version(void) { return 2; }

/* Per-row popcount of rows[i] & mask (mask == NULL: plain popcount). */
REPRO_EXPORT void repro_and_popcount(
    const uint64_t *rows, int64_t n_rows, int64_t n_words,
    const uint64_t *mask, int64_t *out)
{
    int64_t i, w;
    for (i = 0; i < n_rows; ++i) {
        const uint64_t *row = rows + i * n_words;
        int64_t count = 0;
        if (mask) {
            for (w = 0; w < n_words; ++w)
                count += REPRO_POPCOUNT(row[w] & mask[w]);
        } else {
            for (w = 0; w < n_words; ++w)
                count += REPRO_POPCOUNT(row[w]);
        }
        out[i] = count;
    }
}

/* Fixed-point weighted popcount of one packed mask: the sum of
 * table[bit] over the set bits.  table has n_words * 64 entries. */
REPRO_EXPORT int64_t repro_weighted_popcount(
    const uint64_t *words, int64_t n_words, const int64_t *table)
{
    int64_t w, total = 0;
    for (w = 0; w < n_words; ++w) {
        uint64_t word = words[w];
        const int64_t *row = table + w * 64;
        while (word) {
            total += row[REPRO_CTZ(word)];
            word &= word - 1;
        }
    }
    return total;
}

/* Read-only context of one exact search (repro.core.search._BitsetContext),
 * bound once per search and shared by every frame call, including frames
 * running concurrently on several threads.  Index 0 is the left view, 1
 * the right view.  A frame's candidate extensions on side s are the
 * universe entries items[s][start_s ..], in universe order. */
typedef struct {
    int64_t n_words;
    int64_t n_items[2];        /* universe entries of each side */
    int64_t n_columns[2];      /* dataset columns of each view */
    const uint64_t *items[2];  /* packed transaction set per universe entry */
    const int64_t *columns[2]; /* dataset column of each universe entry */
    const int64_t *universe[2]; /* universe index of each entry (ascending) */
    const uint64_t *pos[2];    /* packed positive net-sign plane per column */
    const uint64_t *neg[2];    /* packed negative net-sign plane per column */
    const int64_t *wq[2];      /* fixed-point code length per column */
    const int64_t *tub[2];     /* padded rub table scored by side-s candidates */
    const uint64_t *full;      /* the all-transactions mask */
    const int64_t *full_wsums[2]; /* tub[s] sum of each entry's whole column */
} repro_search_context;

/* Fill ctx->full_wsums[side] (passed as out, since the context is
 * read-only to the frame calls): the rub sum of every side-s universe
 * entry over its whole column.  A frame whose side-s support is the full
 * set (pointer-equal to ctx->full) reads these instead of summing the
 * table over thousands of set bits per candidate. */
REPRO_EXPORT void repro_full_wsums(
    const repro_search_context *ctx, int64_t side, int64_t *out)
{
    int64_t i, n_words = ctx->n_words;
    for (i = 0; i < ctx->n_items[side]; ++i)
        out[i] = repro_weighted_popcount(
            ctx->items[side] + i * n_words, n_words, ctx->tub[side]);
}

/* Exact net sum of the given columns of one view over the transactions
 * x & mask:  sum_c wq[c] * (|x & mask & pos_c| - |x & mask & neg_c|).
 * A rule side's gain vector is sum_c netq_c with netq_c = wq_c * (pos_c -
 * neg_c), so this is that gain vector summed over x & mask — without
 * ever materialising it.  mask == NULL means no mask. */
static int64_t repro_plane_sum(
    const repro_search_context *ctx, int side,
    const int64_t *cols, int64_t n_cols,
    const uint64_t *x, const uint64_t *mask)
{
    int64_t k, w, total = 0, n_words = ctx->n_words;
    for (k = 0; k < n_cols; ++k) {
        const uint64_t *pos = ctx->pos[side] + cols[k] * n_words;
        const uint64_t *neg = ctx->neg[side] + cols[k] * n_words;
        int64_t diff = 0;
        if (mask) {
            for (w = 0; w < n_words; ++w) {
                uint64_t word = x[w] & mask[w];
                diff += REPRO_POPCOUNT(word & pos[w]);
                diff -= REPRO_POPCOUNT(word & neg[w]);
            }
        } else {
            for (w = 0; w < n_words; ++w) {
                diff += REPRO_POPCOUNT(x[w] & pos[w]);
                diff -= REPRO_POPCOUNT(x[w] & neg[w]);
            }
        }
        total += ctx->wq[side][cols[k]] * diff;
    }
    return total;
}

/* Metrics of the side-s candidates of one frame, over new = item & supp:
 * out holds five rows of m = n_items[s] - start doubles,
 *
 *   counts[i] = |new|
 *   joints[i] = |new & supp_other|
 *   wsums[i]  = sum of tub[s] over the set bits of new   (0 unless need_rub)
 *   gains[i]  = plane sum of the other view's rule columns over new
 *   nets[i]   = wq_c * (|pos_c & supp_other| - |neg_c & supp_other|) for the
 *               candidate's own column c                 (0 unless fresh_net)
 */
static void repro_side_metrics(
    const repro_search_context *ctx, int side, int64_t start,
    const uint64_t *supp, const uint64_t *supp_other,
    const int64_t *rule_cols, int64_t n_rule_cols,
    int64_t need_rub, int64_t fresh_net, double *out)
{
    int64_t i, w, n_words = ctx->n_words, m = ctx->n_items[side] - start;
    const int64_t *tub = ctx->tub[side];
    const int64_t *full_wsums = supp == ctx->full ? ctx->full_wsums[side] : NULL;
    double *counts = out, *joints = out + m, *wsums = out + 2 * m;
    double *gains = out + 3 * m, *nets = out + 4 * m;
    for (i = 0; i < m; ++i) {
        const uint64_t *row = ctx->items[side] + (start + i) * n_words;
        int64_t count = 0, joint = 0, wsum = 0, gain = 0, net = 0;
        /* Branch-free, so the compiler can vectorise the popcounts. */
        for (w = 0; w < n_words; ++w) {
            uint64_t word = row[w] & supp[w];
            count += REPRO_POPCOUNT(word);
            joint += REPRO_POPCOUNT(word & supp_other[w]);
        }
        if (need_rub && full_wsums) {
            wsum = full_wsums[start + i];
        } else if (need_rub && count) {
            for (w = 0; w < n_words; ++w) {
                uint64_t word = row[w] & supp[w];
                const int64_t *tub_row = tub + w * 64;
                while (word) {
                    wsum += tub_row[REPRO_CTZ(word)];
                    word &= word - 1;
                }
            }
        }
        if (count)
            gain = repro_plane_sum(
                ctx, 1 - side, rule_cols, n_rule_cols, row, supp);
        if (fresh_net)
            net = repro_plane_sum(
                ctx, side, ctx->columns[side] + start + i, 1, supp_other, NULL);
        counts[i] = (double)count;
        joints[i] = (double)joint;
        wsums[i] = (double)wsum;
        gains[i] = (double)gain;
        nets[i] = (double)net;
    }
}

/* All per-child metrics of one search frame in one call.
 *
 * The frame's rule is lhs => rhs (dataset columns of the left and right
 * view) with packed supports supp_left / supp_right.  out receives
 *
 *   5 * (n_items[0] - start_left) doubles: the left candidates' rows as in
 *       repro_side_metrics, gains = forward gains against the rhs columns;
 *   5 * (n_items[1] - start_right) doubles: the right candidates' rows,
 *       gains = backward gains against the lhs columns;
 *   2 doubles: the frame constants, the rhs plane sum over supp_left and
 *       the lhs plane sum over supp_right.
 *
 * and alive receives, in ascending order, the universe indices of the
 * candidates of both sides whose joint support is not empty (Section 5.2:
 * only co-occurring children are ever visited).  Every value is an exact
 * int64 sum below 2**51 (the callers' fixed-point bound), so the doubles
 * carry it exactly.  Returns the number of alive candidates, or -1 when a
 * start or a column is out of range (nothing is read out of bounds then). */
REPRO_EXPORT int64_t repro_child_metrics(
    const repro_search_context *ctx,
    const uint64_t *supp_left, const uint64_t *supp_right,
    int64_t start_left, int64_t start_right,
    const int64_t *lhs, int64_t n_lhs, const int64_t *rhs, int64_t n_rhs,
    int64_t need_rub, int64_t fresh_net_left, int64_t fresh_net_right,
    double *out, int64_t *alive)
{
    int64_t k, i = 0, j = 0, n_alive = 0;
    int64_t m_left = ctx->n_items[0] - start_left;
    int64_t m_right = ctx->n_items[1] - start_right;
    const double *joints_left = out + m_left, *joints_right;
    const int64_t *u_left, *u_right;
    double *out_right;
    if (start_left < 0 || m_left < 0 || start_right < 0 || m_right < 0
            || n_lhs < 0 || n_rhs < 0)
        return -1;
    for (k = 0; k < n_lhs; ++k)
        if (lhs[k] < 0 || lhs[k] >= ctx->n_columns[0])
            return -1;
    for (k = 0; k < n_rhs; ++k)
        if (rhs[k] < 0 || rhs[k] >= ctx->n_columns[1])
            return -1;
    out_right = out + 5 * m_left;
    joints_right = out_right + m_right;
    repro_side_metrics(ctx, 0, start_left, supp_left, supp_right,
                       rhs, n_rhs, need_rub, fresh_net_left, out);
    repro_side_metrics(ctx, 1, start_right, supp_right, supp_left,
                       lhs, n_lhs, need_rub, fresh_net_right, out_right);
    out_right[5 * m_right] =
        (double)repro_plane_sum(ctx, 1, rhs, n_rhs, supp_left, NULL);
    out_right[5 * m_right + 1] =
        (double)repro_plane_sum(ctx, 0, lhs, n_lhs, supp_right, NULL);
    /* Merge the two sides' ascending universe indices. */
    u_left = ctx->universe[0] + start_left;
    u_right = ctx->universe[1] + start_right;
    while (i < m_left || j < m_right) {
        if (j >= m_right || (i < m_left && u_left[i] < u_right[j])) {
            if (joints_left[i] > 0.0)
                alive[n_alive++] = u_left[i];
            ++i;
        } else {
            if (joints_right[j] > 0.0)
                alive[n_alive++] = u_right[j];
            ++j;
        }
    }
    return n_alive;
}

/* Packed subset test: out[i * n_sets + r] = 1 iff sets[r] is a subset of
 * rows[i] (rows[i] & sets[r] == sets[r]), with early exit per pair. */
REPRO_EXPORT void repro_subset_match(
    const uint64_t *rows, int64_t n_rows,
    const uint64_t *sets, int64_t n_sets,
    int64_t n_words, uint8_t *out)
{
    int64_t i, r, w;
    for (i = 0; i < n_rows; ++i) {
        const uint64_t *row = rows + i * n_words;
        uint8_t *flags = out + i * n_sets;
        for (r = 0; r < n_sets; ++r) {
            const uint64_t *set = sets + r * n_words;
            uint8_t ok = 1;
            for (w = 0; w < n_words; ++w) {
                if ((row[w] & set[w]) != set[w]) {
                    ok = 0;
                    break;
                }
            }
            flags[r] = ok;
        }
    }
}

/* Weighted OR / consequent union: out[i] = OR of cons[r] over the rules r
 * with fired[i * n_rules + r] set. */
REPRO_EXPORT void repro_or_union(
    const uint8_t *fired, int64_t n_rows, int64_t n_rules,
    const uint64_t *cons, int64_t n_words, uint64_t *out)
{
    int64_t i, r, w;
    for (i = 0; i < n_rows; ++i) {
        const uint8_t *flags = fired + i * n_rules;
        uint64_t *acc = out + i * n_words;
        for (w = 0; w < n_words; ++w)
            acc[w] = 0;
        for (r = 0; r < n_rules; ++r) {
            if (flags[r]) {
                const uint64_t *set = cons + r * n_words;
                for (w = 0; w < n_words; ++w)
                    acc[w] |= set[w];
            }
        }
    }
}

/* Fused predict: subset test and consequent union in one pass, never
 * materialising the fired matrix.  out must hold n_rows * n_words_tgt
 * words; it is zeroed here. */
REPRO_EXPORT void repro_match_union(
    const uint64_t *rows, int64_t n_rows, int64_t n_words_src,
    const uint64_t *ant, const uint64_t *cons,
    int64_t n_rules, int64_t n_words_tgt, uint64_t *out)
{
    int64_t i, r, w;
    for (i = 0; i < n_rows; ++i) {
        const uint64_t *row = rows + i * n_words_src;
        uint64_t *acc = out + i * n_words_tgt;
        for (w = 0; w < n_words_tgt; ++w)
            acc[w] = 0;
        for (r = 0; r < n_rules; ++r) {
            const uint64_t *a = ant + r * n_words_src;
            uint8_t ok = 1;
            for (w = 0; w < n_words_src; ++w) {
                if ((row[w] & a[w]) != a[w]) {
                    ok = 0;
                    break;
                }
            }
            if (ok) {
                const uint64_t *set = cons + r * n_words_tgt;
                for (w = 0; w < n_words_tgt; ++w)
                    acc[w] |= set[w];
            }
        }
    }
}

/* AND-reduce n_rows packed rows into out and return its popcount — the
 * streaming buffer's fused tracked-support update.  n_rows must be >= 1. */
REPRO_EXPORT int64_t repro_and_reduce(
    const uint64_t *rows, int64_t n_rows, int64_t n_words, uint64_t *out)
{
    int64_t i, w, count = 0;
    for (w = 0; w < n_words; ++w)
        out[w] = rows[w];
    for (i = 1; i < n_rows; ++i) {
        const uint64_t *row = rows + i * n_words;
        for (w = 0; w < n_words; ++w)
            out[w] &= row[w];
    }
    for (w = 0; w < n_words; ++w)
        count += REPRO_POPCOUNT(out[w]);
    return count;
}

/* Grouped AND-reduce: rows holds n_groups consecutive row groups whose
 * boundaries are offsets[0] .. offsets[n_groups] (offsets[0] == 0);
 * group g AND-reduces into out[g] with its popcount in counts[g].  One
 * call updates every tracked itemset of a stream-buffer side, so the
 * per-call overhead amortises over all of them. */
REPRO_EXPORT void repro_and_reduce_many(
    const uint64_t *rows, const int64_t *offsets, int64_t n_groups,
    int64_t n_words, uint64_t *out, int64_t *counts)
{
    int64_t g, i, w;
    for (g = 0; g < n_groups; ++g) {
        const uint64_t *first = rows + offsets[g] * n_words;
        uint64_t *acc = out + g * n_words;
        int64_t count = 0;
        for (w = 0; w < n_words; ++w)
            acc[w] = first[w];
        for (i = offsets[g] + 1; i < offsets[g + 1]; ++i) {
            const uint64_t *row = rows + i * n_words;
            for (w = 0; w < n_words; ++w)
                acc[w] &= row[w];
        }
        for (w = 0; w < n_words; ++w)
            count += REPRO_POPCOUNT(acc[w]);
        counts[g] = count;
    }
}
