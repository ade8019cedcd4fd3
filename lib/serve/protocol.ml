module Json = Resched_util.Json

type schedule_params = {
  tenant : string;
  seed : int option;
  min_iterations : int option;
  budget_ms : int option;
  deadline_ms : int option;
  fail_attempts : int;
  emit_schedule : bool;
}

type source = Inline of string | Path of string

type op = Schedule of source * schedule_params | Metrics | Shutdown

type request = { id : string; op : op }

let parse_request line =
  match Json.parse line with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok j ->
    let str k = Option.bind (Json.member k j) Json.get_string in
    let int k = Option.bind (Json.member k j) Json.get_int in
    let bool k = Option.bind (Json.member k j) Json.get_bool in
    let id =
      match Json.member "id" j with
      | Some (Json.String s) -> s
      | Some (Json.Int n) -> string_of_int n
      | Some _ | None -> ""
    in
    (match str "op" with
    | Some "metrics" -> Ok { id; op = Metrics }
    | Some "shutdown" -> Ok { id; op = Shutdown }
    | Some "schedule" -> (
      let source =
        match (str "instance", str "path") with
        | Some s, _ -> Ok (Inline s)
        | None, Some p -> Ok (Path p)
        | None, None ->
          Error "schedule request needs \"instance\" or \"path\""
      in
      match source with
      | Error e -> Error e
      | Ok source ->
        let params =
          {
            tenant = Option.value (str "tenant") ~default:"default";
            seed = int "seed";
            min_iterations = int "min_iterations";
            budget_ms = int "budget_ms";
            deadline_ms = int "deadline_ms";
            fail_attempts = Option.value (int "fail_attempts") ~default:0;
            emit_schedule =
              Option.value (bool "emit_schedule") ~default:false;
          }
        in
        Ok { id; op = Schedule (source, params) })
    | Some other -> Error (Printf.sprintf "unknown op %S" other)
    | None -> Error "missing \"op\"")

type reject_reason =
  | Queue_full
  | Tenant_quota
  | Expired
  | Shutting_down
  | Parse_error
  | Line_too_long

let reject_reason_name = function
  | Queue_full -> "queue_full"
  | Tenant_quota -> "tenant_quota"
  | Expired -> "expired"
  | Shutting_down -> "shutting_down"
  | Parse_error -> "parse_error"
  | Line_too_long -> "line_too_long"

type completion = {
  c_id : string;
  c_tenant : string;
  c_makespan : int option;
  c_iterations : int;
  c_degrade : int;
  c_effective_min_iterations : int;
  c_attempts : int;
  c_latency_s : float;
  c_deadline_hit : bool;
  c_schedule : string option;
}

type response =
  | Completed of completion
  | Rejected of { id : string; reason : reject_reason; queue_depth : int }
  | Failed of { id : string; message : string; attempts : int }
  | Metrics_reply of { id : string; body : Json.t }
  | Shutdown_ack of { id : string }

let response_json = function
  | Completed c ->
    Json.Obj
      ([
         ("id", Json.String c.c_id);
         ("status", Json.String "ok");
         ("tenant", Json.String c.c_tenant);
         ( "makespan",
           match c.c_makespan with Some m -> Json.Int m | None -> Json.Null
         );
         ("iterations", Json.Int c.c_iterations);
         ("degrade", Json.Int c.c_degrade);
         ("effective_min_iterations", Json.Int c.c_effective_min_iterations);
         ("attempts", Json.Int c.c_attempts);
         ("latency_ms", Json.float (1000. *. c.c_latency_s));
         ("deadline_hit", Json.Bool c.c_deadline_hit);
       ]
      @
      match c.c_schedule with
      | Some s -> [ ("schedule", Json.String s) ]
      | None -> [])
  | Rejected r ->
    Json.Obj
      [
        ("id", Json.String r.id);
        ("status", Json.String "rejected");
        ("reason", Json.String (reject_reason_name r.reason));
        ("queue_depth", Json.Int r.queue_depth);
      ]
  | Failed f ->
    Json.Obj
      [
        ("id", Json.String f.id);
        ("status", Json.String "error");
        ("message", Json.String f.message);
        ("attempts", Json.Int f.attempts);
      ]
  | Metrics_reply m ->
    Json.Obj
      [
        ("id", Json.String m.id);
        ("status", Json.String "metrics");
        ("metrics", m.body);
      ]
  | Shutdown_ack s ->
    Json.Obj
      [ ("id", Json.String s.id); ("status", Json.String "shutdown") ]

let response_to_line r = Json.to_string ~indent:0 (response_json r)
