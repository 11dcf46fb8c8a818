#!/bin/sh
# Regenerates every paper table/figure reproduction into results/*.txt.
# Default scale: n = 2^20 (paper: 2^29); pass a different exponent as $1.
# Stops at the first bench that exits non-zero.
N=${1:-20}
cd "$(dirname "$0")/.."
B=build/bench
set -ex
$B/bench_vary_k --dtype=f32 --n_log2=$N > results/fig11a_vary_k_f32.txt
$B/bench_vary_k --dtype=u32 --n_log2=$N > results/fig11b_vary_k_u32.txt
$B/bench_vary_k --dtype=f64 --n_log2=$N > results/fig11c_vary_k_f64.txt
$B/bench_distribution --dist=increasing --n_log2=$N > results/fig12a_increasing.txt
$B/bench_distribution --dist=bucket_killer --n_log2=$N > results/fig12b_bucket_killer.txt
$B/bench_vary_n --min_log2=16 --max_log2=$((N+2)) > results/fig13_vary_n.txt
$B/bench_key_value --n_log2=$N > results/fig14_key_value.txt
$B/bench_cpu_vs_gpu --dist=uniform --n_log2=$N > results/fig15a_cpu_uniform.txt
$B/bench_cpu_vs_gpu --dist=increasing --n_log2=$N > results/fig15b_cpu_increasing.txt
$B/bench_engine --query=1 --n_log2=$N > results/fig16a_query1.txt
$B/bench_engine --query=2 --n_log2=$N > results/fig16b_query2.txt
$B/bench_engine --query=3 --n_log2=$N > results/query3_lang.txt
$B/bench_engine --query=4 --n_log2=$N > results/query4_groupby.txt
$B/bench_cost_model --n_log2=$N > results/fig17_cost_model.txt
$B/bench_ablation --sweep=opts --n_log2=$N > results/sec43_ablation_ladder.txt
$B/bench_ablation --sweep=B --n_log2=$N > results/fig8_elems_per_thread.txt
$B/bench_perthread_variants --n_log2=$N > results/fig18_perthread_variants.txt
$B/bench_hybrid --n_log2=$N > results/sec8_hybrid.txt
$B/bench_sim_host --n_log2=$((N-2)) --json_out=BENCH_sim_host.json > results/host_throughput.txt
{
  echo "# Batched execution (engine::BatchExecutor): Q1..Q4 tweet-query mix,"
  echo "# n=2^$N rows. Streams overlap in simulated time; host execution is"
  echo "# sequential so per-query results are bit-identical to the serial path."
  for b in 1 4 16; do
    echo; echo "## batch=$b streams=$b (pooled)"
    $B/bench_engine --batch=$b --streams=$b --n_log2=$N
  done
  echo; echo "## batch=16 streams=16 (--no_pool baseline)"
  $B/bench_engine --batch=16 --streams=16 --no_pool=true --n_log2=$N
} > results/batching.txt
