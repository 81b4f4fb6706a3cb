(* Recovery bench: the payoff of crash durability, measured. A durable
   daemon (--state-dir) that restarts recovers its catalog and artifact
   cache from the checksummed snapshot + journal instead of reloading and
   recomputing, so "restart to first answer" must be strictly cheaper than
   the cold start it replaces.

   Each repeat runs two daemon lives over one state directory: the cold
   life starts empty (load both graphs, compute every artifact for a small
   query workload — the same pair at several hop bounds), serves a warm
   reference round, and closes gracefully (final snapshot); the recovered
   life restarts on the populated state directory, must report a clean
   `health`, and must serve the same replies byte-identically at warm-path
   latency on its very first round.

   The guards: the recovered start is strictly cheaper than the cold one
   (best of [repeats] on each side), every recovered daemon is healthy,
   and every recovered reply is a cache hit identical to its pre-restart
   warm reply. *)

module D = Phom_graph.Digraph
module G = Phom_graph.Generators
module IO = Phom_graph.Graph_io
module Daemon = Phom_server.Daemon
module Protocol = Phom_server.Protocol
module Journal = Phom_server.Journal

type result = {
  repeat : int;
  cold_seconds : float;  (** empty state dir: start + loads + first solve *)
  warm_seconds : float;
  snapshot_seconds : float;  (** graceful close: final snapshot + rotate *)
  recovery_seconds : float;  (** restart on the populated state dir *)
  recovered_solve_seconds : float;  (** first solve after recovery *)
  recovered_hits : bool;
  identical : bool;  (** recovered reply = pre-crash warm reply, byte for byte *)
  clean : bool;  (** the recovered daemon's health: ready, nothing quarantined *)
}

let request st line =
  match Protocol.parse line with
  | Error m -> failwith ("bench recovery: bad request: " ^ m)
  | Ok req -> fst (Daemon.execute st req)

let expect_ok what reply =
  if String.length reply < 2 || String.sub reply 0 2 <> "ok" then
    failwith (Printf.sprintf "bench recovery: %s failed: %s" what reply)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let count_substring ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i acc =
    if i + n > h then acc
    else if String.sub hay i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  if n = 0 then 0 else go 0 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_tmpdir f =
  let dir = Filename.temp_file "phom_recovery_bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let bench_once ~rng ~m ~noise ~repeat =
  let g1, pool = G.paper_pattern ~rng ~m in
  let g2 = G.paper_data ~rng ~pool ~noise g1 in
  with_tmpdir (fun dir ->
      let p1 = Filename.concat dir "g1.phg"
      and p2 = Filename.concat dir "g2.phg" in
      IO.save p1 g1;
      IO.save p2 g2;
      let config =
        {
          Daemon.default_config with
          (* unbounded budget: a tripped answer is cheaper than a complete
             one and is never cached, which would skew the comparison *)
          Daemon.default_timeout = None;
          state_dir = Some (Filename.concat dir "state");
          fsync = Journal.Always;
        }
      in
      (* the query workload: the same pair at several hop bounds. Every
         bound is its own closure + candidate-table artifact, so the cold
         path pays one derivation per bound while the recovered path pays
         only a (much smaller) snapshot restore per bound *)
      let solves =
        List.map
          (fun hops ->
            "solve card rec.g1 rec.g2 --sim shingles --xi 0.5" ^ hops)
          [ ""; " --hops 1"; " --hops 2"; " --hops 3" ]
      in
      let run_all st what =
        String.concat "\n"
          (List.map
             (fun line ->
               let reply = request st line in
               expect_ok what reply;
               reply)
             solves)
      in
      (* cold life: empty state directory to first answers *)
      let held = ref None in
      let (), cold_seconds =
        Util.timed (fun () ->
            let st = Daemon.make_state config in
            expect_ok "load g1" (request st ("load graph rec.g1 " ^ p1));
            expect_ok "load g2" (request st ("load graph rec.g2 " ^ p2));
            ignore (run_all st "cold solve");
            held := Some st)
      in
      let st = Option.get !held in
      let warm_replies, warm_seconds =
        Util.timed (fun () -> run_all st "warm solve")
      in
      let (), snapshot_seconds = Util.timed (fun () -> Daemon.close_state st) in
      (* recovered life: populated state directory to the same answers *)
      let held2 = ref None in
      let (), recovery_seconds =
        Util.timed (fun () -> held2 := Some (Daemon.make_state config))
      in
      let st2 = Option.get !held2 in
      let health = request st2 "health" in
      expect_ok "health" health;
      let replies, recovered_solve_seconds =
        Util.timed (fun () -> run_all st2 "recovered solve")
      in
      Daemon.close_state st2;
      {
        repeat;
        cold_seconds;
        warm_seconds;
        snapshot_seconds;
        recovery_seconds;
        recovered_solve_seconds;
        recovered_hits =
          count_substring ~needle:"cache=closure:hit,mat:hit,cands:hit" replies
          = List.length solves;
        identical = replies = warm_replies;
        clean =
          contains ~needle:"state=ready" health
          && contains ~needle:"quarantined=0" health;
      })

let m = 80
let noise = 0.1
let repeats = 3

let run ~seed ~out () =
  Util.heading "Matching service: cold start vs recovered start";
  Util.note
    "paper synthetic pair (m = %d, noise %.2f), %d repeats; recovered = \
     restart on a populated --state-dir"
    m noise repeats;
  let rng = Random.State.make [| seed |] in
  let results =
    List.init repeats (fun i -> bench_once ~rng ~m ~noise ~repeat:(i + 1))
  in
  (* min over repeats on both sides: the comparison is between the best
     achievable cold start and the best achievable recovered start *)
  let min_by f =
    List.fold_left (fun acc r -> Float.min acc (f r)) infinity results
  in
  let cold = min_by (fun r -> r.cold_seconds) in
  let recovered =
    min_by (fun r -> r.recovery_seconds +. r.recovered_solve_seconds)
  in
  let row instance metric value =
    { Bench_gate.suite = "recovery"; instance; metric; unit = "s"; value }
  in
  Bench_gate.finish ~suite:"recovery" ~seed ~out
    (List.concat_map
       (fun r ->
         let instance = Printf.sprintf "repeat-%d" r.repeat in
         [
           row instance "cold_start" r.cold_seconds;
           row instance "warm" r.warm_seconds;
           row instance "snapshot" r.snapshot_seconds;
           row instance "recovery" r.recovery_seconds;
           row instance "first_solve" r.recovered_solve_seconds;
         ])
       results
    @ [ row "best" "cold_start" cold; row "best" "recovered_start" recovered ])
    [
      Bench_gate.below "recovered start < cold start (s)"
        recovered cold;
      Bench_gate.none "recovered daemons not ready or quarantining"
        (fun r -> not r.clean)
        results;
      Bench_gate.none "recovered solves that missed the cache"
        (fun r -> not r.recovered_hits)
        results;
      Bench_gate.none "recovered replies unlike the pre-restart ones"
        (fun r -> not r.identical)
        results;
    ]
