(* Fleet bench: the cost of the replica tier, measured. phomd replicas run
   as real subprocesses on loopback TCP and every request goes through the
   replica-aware router, so the numbers include dialing, consistent-hash
   placement and the failover machinery — nothing is mocked. Three phases:

   - warm routed latency against a single replica (the TCP floor),
   - the same workload against a full fleet (placement spreads the pairs,
     so per-replica caches stay disjoint and warm),
   - a kill -9 of the replica that owns one pair mid-workload: the next
     routed request for that pair must still succeed (the router fails
     over inside the request) and its duration is the failover blip.

   Any routed request that errors fails the run; the guards hold the blip
   to [max_blip] and require the failover answer to equal the pre-kill
   one. *)

module G = Phom_graph.Generators
module IO = Phom_graph.Graph_io
module Router = Phom_server.Router

type fleet = {
  replicas : int;
  requests : int;
  warm_p50 : float;
  warm_p99 : float;
}

let percentile p xs =
  (* nearest-rank on a sorted copy; p in [0,1] *)
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    a.(min (n - 1) (max 0 (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* the answer proper: the reply with its cache provenance field removed —
   a failover answer comes from a different replica's cache *)
let strip_cache reply =
  let marker = " cache=" in
  let rec find i =
    if i + String.length marker > String.length reply then None
    else if String.sub reply i (String.length marker) = marker then Some i
    else find (i + 1)
  in
  match find 0 with Some i -> String.sub reply 0 i | None -> reply

let expect_ok what reply =
  if String.length reply < 2 || String.sub reply 0 2 <> "ok" then
    failwith (Printf.sprintf "bench fleet: %s failed: %s" what reply)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error _ -> ""

(* "phomd <v> listening on 127.0.0.1:<port>" — first such line of the log *)
let addr_of_banner text =
  let marker = "listening on " in
  let m = String.length marker and n = String.length text in
  let rec find i =
    if i + m > n then None
    else if String.sub text i m = marker then
      let start = i + m in
      let stop = try String.index_from text start '\n' with Not_found -> n in
      Some (String.sub text start (stop - start))
    else find (i + 1)
  in
  find 0

type replica = { pid : int; addr : string; log : string }

let phomd_path () =
  let guess =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat ".." (Filename.concat "bin" "phomd.exe"))
  in
  if Sys.file_exists guess then guess
  else failwith ("bench fleet: cannot find phomd.exe near " ^ guess)

let spawn_replica ~phomd ~jobs =
  let log = Filename.temp_file "phom_fleet_bench" ".log" in
  let fd = Unix.openfile log [ O_WRONLY; O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process phomd
      [|
        phomd; "--listen"; "127.0.0.1:0"; "--jobs"; string_of_int jobs;
        "--default-timeout"; "0";
      |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  let deadline = Unix.gettimeofday () +. 10. in
  let rec await () =
    match addr_of_banner (read_file log) with
    | Some addr -> { pid; addr; log }
    | None ->
        if Unix.gettimeofday () > deadline then (
          Unix.kill pid Sys.sigkill;
          failwith ("bench fleet: replica did not come up: " ^ read_file log))
        else (
          Unix.sleepf 0.05;
          await ())
  in
  await ()

let kill_replica r =
  (try Unix.kill r.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] r.pid) with Unix.Unix_error _ -> ());
  try Sys.remove r.log with Sys_error _ -> ()

let with_fleet ~phomd ~n f =
  let fleet = List.init n (fun _ -> spawn_replica ~phomd ~jobs:2) in
  Fun.protect ~finally:(fun () -> List.iter kill_replica fleet) (fun () -> f fleet)

let router_for endpoints =
  match
    Router.create
      ~config:
        {
          Router.default_config with
          connect_timeout = Some 5.;
          read_timeout = Some 60.;
          cooldown = 0.2;
        }
      ~endpoints ()
  with
  | Ok r -> r
  | Error m -> failwith ("bench fleet: " ^ m)

let route r line =
  match Router.request r line with
  | Ok reply -> reply
  | Error m -> failwith ("bench fleet: routed " ^ line ^ ": " ^ m)

(* the workload: [pairs] independent synthetic graph pairs, so consistent
   hashing has something to spread across a fleet *)
let make_pairs ~rng ~m ~noise ~pairs =
  List.init pairs (fun i ->
      let g1, pool = G.paper_pattern ~rng ~m in
      let g2 = G.paper_data ~rng ~pool ~noise g1 in
      let save g =
        let path = Filename.temp_file "phom_fleet_bench" ".phg" in
        IO.save path g;
        path
      in
      (Printf.sprintf "p%d" i, save g1, save g2))

let load_pairs router pairs =
  List.iter
    (fun (name, p1, p2) ->
      expect_ok ("load " ^ name)
        (route router (Printf.sprintf "load graph %s.g1 %s" name p1));
      expect_ok ("load " ^ name)
        (route router (Printf.sprintf "load graph %s.g2 %s" name p2)))
    pairs

let solve_line name =
  Printf.sprintf "solve card %s.g1 %s.g2 --sim shingles --xi 0.5" name name

(* one warm measurement phase: a cold pass computes every artifact, then
   [rounds] timed passes over all pairs through the router *)
let measure_fleet router pairs ~rounds =
  List.iter
    (fun (name, _, _) -> expect_ok "cold solve" (route router (solve_line name)))
    pairs;
  let lat = ref [] in
  for _ = 1 to rounds do
    List.iter
      (fun (name, _, _) ->
        let reply, dt = Util.timed (fun () -> route router (solve_line name)) in
        expect_ok "warm solve" reply;
        lat := dt :: !lat)
      pairs
  done;
  !lat

let m = 20
let noise = 0.1
let pairs = 4
let rounds = 20
let max_blip = 10.0

let run ~seed ~out () =
  Util.heading "Fleet tier: routed latency and the price of losing a replica";
  Util.note
    "phomd subprocesses on loopback TCP, %d graph pairs (m = %d, noise \
     %.2f), %d warm rounds per pair, every request through the router"
    pairs m noise rounds;
  let phomd = phomd_path () in
  let rng = Random.State.make [| seed |] in
  let pair_files = make_pairs ~rng ~m ~noise ~pairs in
  let cleanup_files () =
    List.iter
      (fun (_, p1, p2) ->
        List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ p1; p2 ])
      pair_files
  in
  Fun.protect ~finally:cleanup_files @@ fun () ->
  (* phase 1 + 2: the same warm workload against 1 replica and a fleet *)
  let measure_n n =
    with_fleet ~phomd ~n (fun fleet ->
        let router = router_for (List.map (fun r -> r.addr) fleet) in
        load_pairs router pair_files;
        let lat = measure_fleet router pair_files ~rounds in
        {
          replicas = n;
          requests = List.length lat;
          warm_p50 = percentile 0.50 lat;
          warm_p99 = percentile 0.99 lat;
        })
  in
  let fleets = [ measure_n 1; measure_n 3 ] in
  (* phase 3: kill the owner of the first pair mid-workload; the very next
     routed request for that pair must fail over inside the request *)
  let victim_name, _, _ = List.hd pair_files in
  let blip, blip_reply_ok =
    with_fleet ~phomd ~n:3 (fun fleet ->
        let endpoints = List.map (fun r -> r.addr) fleet in
        let router = router_for endpoints in
        load_pairs router pair_files;
        List.iter
          (fun (name, _, _) ->
            expect_ok "cold solve" (route router (solve_line name)))
          pair_files;
        let owner =
          match
            Router.owner ~endpoints
              ~key:
                (Router.solve_key ~g1:(victim_name ^ ".g1")
                   ~g2:(victim_name ^ ".g2"))
              ()
          with
          | Some o -> o
          | None -> failwith "bench fleet: no owner"
        in
        let victim = List.find (fun r -> r.addr = owner) fleet in
        let reference = route router (solve_line victim_name) in
        kill_replica victim;
        let reply, blip =
          Util.timed (fun () -> route router (solve_line victim_name))
        in
        expect_ok "failover solve" reply;
        (blip, strip_cache reply = strip_cache reference))
  in
  let row instance metric unit value =
    { Bench_gate.suite = "fleet"; instance; metric; unit; value }
  in
  Bench_gate.finish ~suite:"fleet" ~seed ~out
    (List.concat_map
       (fun r ->
         let instance = Printf.sprintf "replicas-%d" r.replicas in
         [
           row instance "requests" "requests" (float_of_int r.requests);
           row instance "warm_p50" "s" r.warm_p50;
           row instance "warm_p99" "s" r.warm_p99;
         ])
       fleets
    @ [ row "failover" "blip" "s" blip ])
    [
      Bench_gate.at_most "failover blip (s)" blip max_blip;
      Bench_gate.none "failover answers unlike the pre-kill one" not
        [ blip_reply_ok ];
    ]
