let json ?packets () =
  let fields =
    [
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("word_size", Json.Int Sys.word_size);
      ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
      ("build_profile", Json.String Build_info.profile);
      ("inline_budget", Json.Int Build_info.inline_budget);
    ]
  in
  Json.Obj
    (match packets with
    | None -> fields
    | Some n -> fields @ [ ("packets", Json.Int n) ])
