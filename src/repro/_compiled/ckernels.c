/* C transliteration of repro/_compiled/kernels_py.py.
 *
 * Compiled on demand by cc_backend.py into a small shared library and
 * driven through ctypes.  The arithmetic must stay a line-by-line mirror
 * of kernels_py.py (same operations, same order, no fused multiply-adds:
 * the build passes -ffp-contract=off) so that every backend returns
 * bit-identical results to the numpy reference kernels.
 *
 * Three entry points: the two histogram DPs and the SAE/SARE
 * pooled-median span costs.  The DPs use the quadratic prefix form of the
 * span cost
 *     cost(s, e) = clip(X - Y*Y / Z, 0),  X/Y/Z = A/B/C[e+1] - A/B/C[s],
 * with cost 0 wherever Z <= 0 (zero-weight spans are free).
 */

#include <math.h>
#include <stdint.h>

static double span_cost(const double *pa, const double *pb, const double *pc,
                        int64_t s, int64_t e) {
    double x = pa[e + 1] - pa[s];
    double y = pb[e + 1] - pb[s];
    double z = pc[e + 1] - pc[s];
    if (z > 0.0) {
        double c = x - (y * y) / z;
        return (c < 0.0) ? 0.0 : c;
    }
    return 0.0;
}

static void seed_first_row(const double *pa, const double *pb, const double *pc,
                           int64_t n, double *errors, int64_t *parents) {
    for (int64_t j = 0; j < n; j++) {
        errors[j] = span_cost(pa, pb, pc, 0, j);
        parents[j] = -1;
    }
}

/* Monotone split-point divide and conquer: O(B n log n) evaluations. */
void repro_dp_divide_conquer(const double *pa, const double *pb, const double *pc,
                             int64_t n, int64_t max_buckets,
                             double *errors, int64_t *parents) {
    /* DFS stack of (j_lo, j_hi, s_lo, s_hi); depth <= log2(n) + 2. */
    int64_t stack[64][4];
    seed_first_row(pa, pb, pc, n, errors, parents);
    for (int64_t b = 1; b < max_buckets; b++) {
        double *row = errors + b * n;
        const double *prev = errors + (b - 1) * n;
        int64_t *prow = parents + b * n;
        const int64_t *pprev = parents + (b - 1) * n;
        for (int64_t j = 0; j < b; j++) {
            /* Fewer items than buckets: carry the previous row. */
            row[j] = prev[j];
            prow[j] = pprev[j];
        }
        stack[0][0] = b;
        stack[0][1] = n - 1;
        stack[0][2] = b - 1;
        stack[0][3] = n - 2;
        int64_t top = 1;
        while (top > 0) {
            top--;
            int64_t j_lo = stack[top][0];
            int64_t j_hi = stack[top][1];
            int64_t s_lo = stack[top][2];
            int64_t s_hi = stack[top][3];
            if (j_lo > j_hi) continue;
            int64_t mid = (j_lo + j_hi) / 2;
            int64_t hi = (mid - 1 < s_hi) ? mid - 1 : s_hi;
            double best = INFINITY;
            int64_t best_s = s_lo;
            for (int64_t s = s_lo; s <= hi; s++) {
                double cand = prev[s] + span_cost(pa, pb, pc, s + 1, mid);
                if (cand < best) {
                    best = cand;
                    best_s = s;
                }
            }
            row[mid] = best;
            prow[mid] = best_s;
            if (mid + 1 <= j_hi) {
                stack[top][0] = mid + 1;
                stack[top][1] = j_hi;
                stack[top][2] = best_s;
                stack[top][3] = s_hi;
                top++;
            }
            if (j_lo <= mid - 1) {
                stack[top][0] = j_lo;
                stack[top][1] = mid - 1;
                stack[top][2] = s_lo;
                stack[top][3] = best_s;
                top++;
            }
        }
    }
}

/* Dense min-plus row sweep: O(B n^2), no cost matrix materialised. */
void repro_dp_dense(const double *pa, const double *pb, const double *pc,
                    int64_t n, int64_t max_buckets,
                    double *errors, int64_t *parents) {
    seed_first_row(pa, pb, pc, n, errors, parents);
    for (int64_t b = 1; b < max_buckets; b++) {
        double *row = errors + b * n;
        const double *prev = errors + (b - 1) * n;
        int64_t *prow = parents + b * n;
        const int64_t *pprev = parents + (b - 1) * n;
        for (int64_t j = 0; j < b; j++) {
            row[j] = prev[j];
            prow[j] = pprev[j];
        }
        for (int64_t j = b; j < n; j++) {
            double best = INFINITY;
            int64_t best_s = b - 1;
            for (int64_t s = b - 1; s < j; s++) {
                double cand = prev[s] + span_cost(pa, pb, pc, s + 1, j);
                if (cand < best) {
                    best = cand;
                    best_s = s;
                }
            }
            row[j] = best;
            prow[j] = best_s;
        }
    }
}

/* Cost of representative values[idx] for one span of the weighted
 * absolute-error oracle; lo/hi are the span's bounding prefix rows. */
static double absolute_cost_at(const double *lo_w, const double *hi_w,
                               const double *lo_wv, const double *hi_wv,
                               const double *values, int64_t idx,
                               double total_w, double total_wv) {
    double b_hat = values[idx];
    double bw = hi_w[idx] - lo_w[idx];
    double bwv = hi_wv[idx] - lo_wv[idx];
    return b_hat * bw - bwv + (total_wv - bwv) - b_hat * (total_w - bw);
}

/* Batched SAE/SARE span costs: first-crossing weighted median by a linear
 * scan, then the np.minimum of the costs at the median and its two
 * neighbours, clipped like np.maximum(cost, 0.0). */
void repro_absolute_span_costs(const double *below_w, const double *below_wv,
                               const double *prefix_w, const double *prefix_wv,
                               const double *values, int64_t k,
                               const int64_t *starts, const int64_t *ends,
                               int64_t spans, double *out) {
    for (int64_t p = 0; p < spans; p++) {
        int64_t s = starts[p];
        int64_t e = ends[p] + 1;
        double total_w = prefix_w[e] - prefix_w[s];
        double total_wv = prefix_wv[e] - prefix_wv[s];
        double half = total_w / 2.0;
        const double *lo_w = below_w + s * k;
        const double *hi_w = below_w + e * k;
        const double *lo_wv = below_wv + s * k;
        const double *hi_wv = below_wv + e * k;
        int64_t median = k - 1;
        for (int64_t j = 0; j < k; j++) {
            if (hi_w[j] - lo_w[j] >= half) {
                median = j;
                break;
            }
        }
        int64_t left = (median - 1 > 0) ? median - 1 : 0;
        int64_t right = (median + 1 < k - 1) ? median + 1 : k - 1;
        int64_t candidates[3] = {median, left, right};
        double best = 0.0;
        for (int c = 0; c < 3; c++) {
            double cost = absolute_cost_at(lo_w, hi_w, lo_wv, hi_wv, values,
                                           candidates[c], total_w, total_wv);
            if (c == 0 || !(best < cost || best != best)) best = cost;
        }
        if (best <= 0.0) best = 0.0;
        out[p] = best;
    }
}
