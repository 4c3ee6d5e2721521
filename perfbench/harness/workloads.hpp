// perfbench — the harness subcommands (see main.cpp) and their flags.
#pragma once

#include <set>
#include <string>

#include "common.hpp"

namespace perfbench {

[[nodiscard]] std::set<std::string> capture_flags();
int run_capture(const Flags& flags);

[[nodiscard]] std::set<std::string> gen_spool_flags();
int run_gen_spool(const Flags& flags);
[[nodiscard]] std::set<std::string> study_flags();
int run_study_batch(const Flags& flags);
int run_study_online(const Flags& flags);

[[nodiscard]] std::set<std::string> serve_gen_flags();
int run_serve_gen(const Flags& flags);
[[nodiscard]] std::set<std::string> serve_host_flags();
int run_serve_host(const Flags& flags);
[[nodiscard]] std::set<std::string> serve_load_flags();
int run_serve_load(const Flags& flags);

}  // namespace perfbench
