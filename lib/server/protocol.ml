type solve = {
  problem : Phom.Api.problem;
  g1 : string;
  g2 : string;
  sim : Catalog.sim;
  xi : float;
  hops : int option;
  timeout : float option;
  steps : int option;
  algorithm : Phom.Api.algorithm;
  partition : bool;
  compress : bool;
}

type count = {
  g1 : string;
  g2 : string;
  sim : Catalog.sim;
  xi : float;
  hops : int option;
  timeout : float option;
  steps : int option;
}

type edit = {
  name : string;
  op : [ `Add | `Del ];
  v : int;
  w : int;
  crc : string option;
}

type request =
  | Version
  | Ping
  | Health
  | List
  | Stats
  | Load_graph of { name : string; path : string }
  | Load_mat of { name : string; path : string }
  | Unload of string
  | Edit of edit
  | Solve of solve
  | Count of count
  | Shutdown
  | Quit

(* the one verb table: the parser, the unknown-command error and the
   client's usage hint all derive from it, so they cannot drift when a
   verb lands *)
let verbs =
  [
    "version"; "ping"; "health"; "list"; "stats"; "load"; "unload"; "addedge";
    "deledge"; "solve"; "count"; "shutdown"; "quit";
  ]

let verb_summary = String.concat ", " verbs

let problem_token = function
  | Phom.Api.CPH -> "card"
  | Phom.Api.CPH11 -> "card11"
  | Phom.Api.SPH -> "sim"
  | Phom.Api.SPH11 -> "sim11"

let problem_of_token = function
  | "card" -> Some Phom.Api.CPH
  | "card11" -> Some Phom.Api.CPH11
  | "sim" -> Some Phom.Api.SPH
  | "sim11" -> Some Phom.Api.SPH11
  | _ -> None

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

(* replies are one line on the wire; a reply that echoes hostile request
   bytes (an unknown command full of control characters, say) must not be
   able to smuggle a newline or garble a terminal *)
(* per line, not per reply: a multi-line stats reply carries real newlines
   as its framing, which must survive; any other control character inside a
   line is still escaped (single-line replies echo client input) *)
let sanitize reply =
  let sanitize_line l =
    if String.exists (fun c -> c < ' ' || c = '\x7f') l then String.escaped l
    else l
  in
  String.concat "\n" (List.map sanitize_line (String.split_on_char '\n' reply))

let float_of tok = float_of_string_opt tok
let int_of tok = int_of_string_opt tok

(* the solve flag loop, shared with [count] (which owns a strict subset of
   the flags); [sim_flag]/[mat_flag] are kept apart so their mutual
   exclusion can be checked at the end *)
let parse_solve_flags ?(context = `Solve) init flags =
  let s = ref init in
  let sim_flag = ref None and mat_flag = ref None in
  let rec go = function
    | [] -> Ok ()
    | flag :: _
      when context = `Count
           && List.mem flag [ "--partition"; "--compress"; "--algorithm" ] ->
        err "%s is a solve-only flag (not valid for count)" flag
    | "--partition" :: rest ->
        s := { !s with partition = true };
        go rest
    | "--compress" :: rest ->
        s := { !s with compress = true };
        go rest
    | [ flag ]
      when List.mem flag
             [ "--mat"; "--sim"; "--xi"; "--hops"; "--timeout"; "--steps";
               "--algorithm"; "--jobs" ] ->
        err "%s needs a value" flag
    | "--mat" :: name :: rest ->
        mat_flag := Some name;
        go rest
    | "--sim" :: kind :: rest -> (
        match kind with
        | "equality" ->
            sim_flag := Some Catalog.Equality;
            go rest
        | "shingles" ->
            sim_flag := Some Catalog.Shingles;
            go rest
        | _ -> err "unknown similarity %s (equality or shingles)" kind)
    | "--xi" :: v :: rest -> (
        match float_of v with
        | Some xi when xi >= 0. && xi <= 1. ->
            s := { !s with xi };
            go rest
        | _ -> err "--xi must be a float in [0,1] (got %s)" v)
    | "--hops" :: v :: rest -> (
        match int_of v with
        | Some k when k >= 1 ->
            s := { !s with hops = Some k };
            go rest
        | _ -> err "--hops must be an integer >= 1 (got %s)" v)
    | "--timeout" :: v :: rest -> (
        match float_of v with
        | Some secs when secs > 0. ->
            s := { !s with timeout = Some secs };
            go rest
        | _ -> err "--timeout must be positive seconds (got %s)" v)
    | "--steps" :: v :: rest -> (
        match int_of v with
        | Some n when n >= 0 ->
            s := { !s with steps = Some n };
            go rest
        | _ -> err "--steps must be a non-negative integer (got %s)" v)
    | "--algorithm" :: v :: rest -> (
        match v with
        | "direct" ->
            s := { !s with algorithm = Phom.Api.Direct };
            go rest
        | "naive" ->
            s := { !s with algorithm = Phom.Api.Naive_product };
            go rest
        | "exact" ->
            s := { !s with algorithm = Phom.Api.Exact_bb };
            go rest
        | "dp" ->
            s := { !s with algorithm = Phom.Api.Dp_td };
            go rest
        | _ -> err "unknown algorithm %s (direct, naive, exact or dp)" v)
    | "--jobs" :: v :: rest -> (
        match int_of v with
        | Some n when n >= 1 -> go rest
        | _ -> err "--jobs must be an integer >= 1 (got %s)" v)
    | tok :: _ -> err "unknown solve flag %s" tok
  in
  match go flags with
  | Error _ as e -> e
  | Ok () -> (
      match (!mat_flag, !sim_flag) with
      | Some _, Some _ -> err "--mat and --sim are mutually exclusive"
      | _ when !s.compress && !s.hops <> None ->
          err "--compress needs the full closure and cannot be combined with --hops"
      | Some name, None -> Ok { !s with sim = Catalog.Named name }
      | None, Some sim -> Ok { !s with sim }
      | None, None -> Ok !s)

let parse line =
  let tokens =
    List.filter (fun t -> t <> "") (String.split_on_char ' ' (String.trim line))
  in
  match tokens with
  | [] -> err "empty request"
  | [ "version" ] -> Ok Version
  | [ "ping" ] -> Ok Ping
  | [ "health" ] -> Ok Health
  | [ "list" ] -> Ok List
  | [ "stats" ] -> Ok Stats
  | [ "shutdown" ] -> Ok Shutdown
  | [ "quit" ] -> Ok Quit
  | [ "load"; "graph"; name; path ] -> Ok (Load_graph { name; path })
  | [ "load"; "mat"; name; path ] -> Ok (Load_mat { name; path })
  | "load" :: _ -> err "usage: load (graph|mat) NAME PATH"
  | [ "unload"; name ] -> Ok (Unload name)
  | "unload" :: _ -> err "usage: unload NAME"
  | ("addedge" | "deledge") :: rest -> (
      let verb = List.hd tokens in
      let op = if verb = "addedge" then `Add else `Del in
      let usage () = err "usage: %s GRAPH V W [--crc HEX]" verb in
      let is_hex s =
        s <> ""
        && String.length s <= 16
        && String.for_all
             (function 'a' .. 'f' | 'A' .. 'F' | '0' .. '9' -> true | _ -> false)
             s
      in
      match rest with
      | name :: v :: w :: crc_flags -> (
          match (int_of v, int_of w) with
          | Some v, Some w when v >= 0 && w >= 0 -> (
              match crc_flags with
              | [] -> Ok (Edit { name; op; v; w; crc = None })
              | [ "--crc"; c ] when is_hex c ->
                  Ok (Edit { name; op; v; w; crc = Some c })
              | [ "--crc"; c ] ->
                  err "--crc must be a hex checksum (got %s)" c
              | [ "--crc" ] -> err "--crc needs a value"
              | tok :: _ -> err "unknown %s flag %s" verb tok)
          | _ -> err "%s: V and W must be non-negative node ids" verb)
      | _ -> usage ())
  | "solve" :: problem :: g1 :: g2 :: flags -> (
      match problem_of_token problem with
      | None -> err "unknown problem %s (card, card11, sim or sim11)" problem
      | Some problem -> (
          let init =
            {
              problem;
              g1;
              g2;
              sim = Catalog.Equality;
              xi = 0.75;
              hops = None;
              timeout = None;
              steps = None;
              algorithm = Phom.Api.Direct;
              partition = false;
              compress = false;
            }
          in
          match parse_solve_flags init flags with
          | Error _ as e -> e
          | Ok s -> Ok (Solve s)))
  | "solve" :: _ ->
      err "usage: solve (card|card11|sim|sim11) G1 G2 [flags]"
  | "count" :: g1 :: g2 :: flags -> (
      let init =
        {
          problem = Phom.Api.CPH;
          g1;
          g2;
          sim = Catalog.Equality;
          xi = 0.75;
          hops = None;
          timeout = None;
          steps = None;
          algorithm = Phom.Api.Direct;
          partition = false;
          compress = false;
        }
      in
      match parse_solve_flags ~context:`Count init flags with
      | Error _ as e -> e
      | Ok s ->
          Ok
            (Count
               {
                 g1 = s.g1;
                 g2 = s.g2;
                 sim = s.sim;
                 xi = s.xi;
                 hops = s.hops;
                 timeout = s.timeout;
                 steps = s.steps;
               }))
  | "count" :: _ -> err "usage: count G1 G2 [flags]"
  | cmd :: _ -> err "unknown command %s (%s)" cmd verb_summary
