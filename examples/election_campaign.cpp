// The full Chapter 5 walkthrough, file formats included.
//
// Runs the three-machine election campaign and materializes every artifact
// the thesis names, under ./loki_campaign_out/:
//   black.sm / yellow.sm / green.sm    state machine specifications (§5.3)
//   black.faults / green.faults        fault specifications (§5.4)
//   nodes.txt, machines.txt            node file / machines file (§5.6)
//   black.study                        a study file (§5.6)
//   exp<k>.<machine>.timeline          local timelines (§3.5.6)
//   exp<k>.timestamps                  sync samples (getstamps, §5.6)
//   exp<k>.alphabeta                   convex-hull bounds (alphabeta, §5.7)
//   exp<k>.global                      global timeline (makeglobal, §5.7)
//   exp<k>.verdicts                    injection correctness results (§5.7)
//
// The CLI tools (tools/alphabeta, tools/makeglobal) consume these same
// files, so the whole §5.6-§5.7 command sequence can be replayed by hand.
#include <cstdio>
#include <filesystem>
#include <memory>

#include "analysis/pipeline.hpp"
#include "apps/election.hpp"
#include "campaign/campaign.hpp"
#include "clocksync/projection.hpp"
#include "spec/campaign_files.hpp"
#include "util/text_file.hpp"

using namespace loki;

int main() {
  const std::string out = "loki_campaign_out";
  std::filesystem::create_directories(out);

  const std::vector<std::string> hosts = {"hostA", "hostB", "hostC"};
  const std::vector<std::pair<std::string, std::string>> placement = {
      {"black", "hostA"}, {"yellow", "hostB"}, {"green", "hostC"}};

  apps::ElectionParams app;
  app.run_for = milliseconds(700);

  // --- write the specification files (§5.3-§5.6) ---------------------------
  auto params = apps::election_experiment(2024, hosts, placement, app);
  params.nodes[0].fault_spec =
      spec::parse_fault_spec("bfault1 (black:LEAD) always\n", "campaign");
  params.nodes[2].fault_spec = spec::parse_fault_spec(
      "gfault2 ((black:CRASH) & ((green:FOLLOW) | (green:ELECT))) once\n",
      "campaign");
  params.nodes[0].restart.enabled = true;
  params.nodes[0].restart.delay = milliseconds(60);

  for (const auto& node : params.nodes) {
    write_file(out + "/" + node.nickname + ".sm",
               spec::serialize_state_machine_spec(node.sm_spec));
    if (!node.fault_spec.entries.empty())
      write_file(out + "/" + node.nickname + ".faults",
                 spec::serialize_fault_spec(node.fault_spec));
  }
  spec::NodeFile node_file;
  for (const auto& [nick, host] : placement) node_file.push_back({nick, host});
  write_file(out + "/nodes.txt", spec::serialize_node_file(node_file));
  write_file(out + "/machines.txt", spec::serialize_machines_file(hosts));
  spec::StudyFile study_file{"black", "nodes.txt", "black.sm", "black.faults",
                             "./election", ""};
  write_file(out + "/black.study", spec::serialize_study_file(study_file));

  // --- runtime + analysis phases, one set of files per experiment ----------
  // The campaign facade streams each result as it completes; an artifact
  // sink materializes the thesis' files per experiment instead of holding
  // the whole campaign in memory. Sink calls arrive in experiment order
  // even under a parallel runner, so exp<k> numbering is stable.
  const int experiments = 5;
  int accepted = 0;
  auto artifacts = std::make_shared<campaign::CallbackSink>();
  artifacts->experiment([&](const campaign::StudyInfo&, int k,
                            const runtime::ExperimentResult& r) {
    const std::string prefix = out + "/exp" + std::to_string(k);

    for (const auto& tl : r.timelines)
      write_file(prefix + "." + tl.nickname + ".timeline",
                 serialize_local_timeline(tl));
    write_file(prefix + ".timestamps",
               clocksync::serialize_timestamps(r.sync_samples, r.hosts));

    const analysis::ExperimentAnalysis a = analysis::analyze_experiment(r);
    write_file(prefix + ".alphabeta",
               clocksync::serialize_alphabeta(a.alphabeta));
    write_file(prefix + ".global",
               analysis::serialize_global_timeline(a.timeline));
    write_file(prefix + ".verdicts",
               analysis::serialize_verdicts(a.verification));
    accepted += a.accepted ? 1 : 0;

    std::printf("experiment %d: %zu injections, %s\n", k,
                a.verification.verdicts.size(),
                a.accepted ? "accepted" : "DISCARDED");
  });

  CampaignBuilder()
      .sink(artifacts)
      .study("black")
      .experiments(experiments)
      .base(params)  // experiment k runs with seed 2024+k
      .done()
      .build()
      .run();
  std::printf("\n%d/%d experiments accepted; artifacts in ./%s/\n", accepted,
              experiments, out.c_str());
  std::printf("replay the analysis by hand:\n");
  std::printf("  tools/alphabeta %s/exp0.timestamps %s/machines.txt /tmp/ab\n",
              out.c_str(), out.c_str());
  std::printf("  tools/makeglobal /tmp/ab /tmp/global %s/exp0.black.timeline "
              "%s/exp0.yellow.timeline %s/exp0.green.timeline\n",
              out.c_str(), out.c_str(), out.c_str());
  return 0;
}
