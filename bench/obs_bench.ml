(* Observability overhead bench: the <= 2% guard for the metrics layer.

   The workload is the daemon's warm-serve path — the hottest loop that
   crosses every instrumented seam (solver spans and counters, cache
   probes, request accounting) without artifact recomputation noise. Warm
   solves run in timed blocks of [block], with the registry enabled and
   with [Obs.set_enabled false]; [pairs] on/off block pairs alternate
   which mode runs first, so clock drift, cache warmth and run order
   cancel, and the overhead is the ratio of the two totals. A warm solve
   takes about 0.1 ms, so one block is a few milliseconds and a single
   slow block moves the total by a small fraction of the bound. *)

module G = Phom_graph.Generators
module IO = Phom_graph.Graph_io
module Obs = Phom_obs.Obs
module Daemon = Phom_server.Daemon
module Protocol = Phom_server.Protocol

let request st line =
  match Protocol.parse line with
  | Error m -> failwith ("bench obs: bad request: " ^ m)
  | Ok req -> fst (Daemon.execute st req)

let expect_ok what reply =
  if String.length reply < 2 || String.sub reply 0 2 <> "ok" then
    failwith (Printf.sprintf "bench obs: %s failed: %s" what reply)

(* one timed batch of [iters] warm solves in the given registry mode *)
let batch st solve ~iters ~enabled =
  Obs.set_enabled enabled;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled true)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        expect_ok "warm solve" (request st solve)
      done;
      Unix.gettimeofday () -. t0)

let m = 60
let noise = 0.1
let warmup = 200
let block = 25
let pairs = 800
let max_overhead = 2.0

let run ~seed ~out () =
  Util.heading "Observability: metrics overhead on the warm-serve path";
  Util.note
    "pattern m=%d, %d on/off pairs of %d-solve blocks, alternating which \
     runs first, bound %.1f%%"
    m pairs block max_overhead;
  let rng = Random.State.make [| seed |] in
  let g1, pool = G.paper_pattern ~rng ~m in
  let g2 = G.paper_data ~rng ~pool ~noise g1 in
  let save g =
    let path = Filename.temp_file "phom_obs_bench" ".phg" in
    IO.save path g;
    path
  in
  let p1 = save g1 and p2 = save g2 in
  let finally () =
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ p1; p2 ]
  in
  Fun.protect ~finally @@ fun () ->
  (* unbounded budget: a tripped answer would compare different work *)
  let config = { Daemon.default_config with Daemon.default_timeout = None } in
  let st = Daemon.make_state config in
  expect_ok "load pattern" (request st ("load graph obs.g1 " ^ p1));
  expect_ok "load data" (request st ("load graph obs.g2 " ^ p2));
  let solve = "solve card obs.g1 obs.g2 --sim shingles --xi 0.5" in
  (* cold solve fills the cache; one warm batch per mode warms the code *)
  expect_ok "cold solve" (request st solve);
  ignore (batch st solve ~iters:warmup ~enabled:true);
  ignore (batch st solve ~iters:warmup ~enabled:false);
  let on_total = ref 0. and off_total = ref 0. in
  let timed enabled =
    let t = batch st solve ~iters:block ~enabled in
    if enabled then on_total := !on_total +. t else off_total := !off_total +. t
  in
  for i = 1 to pairs do
    let first = i mod 2 = 1 in
    timed first;
    timed (not first)
  done;
  let n = float_of_int (pairs * block) in
  let overhead = (!on_total -. !off_total) /. !off_total *. 100. in
  (* the stats surface stayed live through the run *)
  expect_ok "stats" (request st "stats");
  let row instance metric unit value =
    { Bench_gate.suite = "obs"; instance; metric; unit; value }
  in
  Bench_gate.finish ~suite:"obs" ~seed ~out
    [
      row "metrics-on" "total" "s" !on_total;
      row "metrics-on" "per_solve" "s" (!on_total /. n);
      row "metrics-off" "total" "s" !off_total;
      row "metrics-off" "per_solve" "s" (!off_total /. n);
    ]
    [ Bench_gate.at_most "metrics overhead (%)" overhead max_overhead ]
