#include "workloads/experiment.h"

#include <utility>

#include "common/check.h"
#include "obs/registry.h"
#include "workloads/ensemble.h"

namespace eio::workloads {

namespace {

std::uint32_t checked_rank_count(const JobSpec& spec) {
  EIO_CHECK_MSG(!spec.programs.empty(), "job has no programs");
  return static_cast<std::uint32_t>(spec.programs.size());
}

}  // namespace

std::uint32_t node_count_for(const lustre::MachineConfig& machine,
                             std::uint32_t tasks) {
  EIO_CHECK(tasks >= 1);
  return (tasks + machine.tasks_per_node - 1) / machine.tasks_per_node;
}

Rate fair_share_rate(const lustre::MachineConfig& machine, std::uint32_t tasks) {
  EIO_CHECK(tasks >= 1);
  return machine.ost_bandwidth * static_cast<double>(machine.ost_count) /
         static_cast<double>(tasks);
}

RunInstance::RunInstance(JobSpec spec, std::uint64_t run_index)
    : spec_(std::move(spec)),
      ranks_(checked_rank_count(spec_)),
      run_(spec_.machine.seed, run_index),
      injector_(spec_.faults.enabled()
                    ? std::make_unique<fault::Injector>(spec_.faults, run_)
                    : nullptr),
      fs_(run_, spec_.machine, node_count_for(spec_.machine, ranks_),
          injector_.get()),
      io_(run_, fs_, spec_.machine.tasks_per_node, injector_.get()),
      monitor_(ipm::Monitor::Config{.mode = spec_.capture},
               spec_.sink_factory ? spec_.sink_factory(run_index) : nullptr),
      runtime_(run_, io_, spec_.collective_costs, injector_.get()) {
  for (const auto& [path, options] : spec_.stripe_options) {
    io_.setstripe(path, options);
  }
  monitor_.attach(io_);
  // Fault markers become OpType::kFault events in the IPM pipeline —
  // they ride through traces, sinks, and scans like any other call.
  if (injector_) {
    injector_->set_marker_hook(
        [this](const fault::Marker& m) { io_.notify_fault(m); });
  }
  monitor_.trace().set_experiment(spec_.name);
  monitor_.trace().set_ranks(ranks_);
  runtime_.set_phase_hook([this](RankId rank, std::int32_t phase) {
    monitor_.set_phase(rank, phase);
  });
  runtime_.load(spec_.programs);
}

RunResult RunInstance::execute() {
  EIO_CHECK_MSG(!executed_, "RunInstance::execute() called twice");
  executed_ = true;
  OBS_SPAN("run.execute");

  RunResult result;
  result.name = spec_.name;
  // Step until every rank has finished (the interference stream, when
  // enabled, would keep the calendar alive forever), then stop the
  // generator and drain the remaining in-flight work.
  sim::Engine& engine = run_.engine();
  runtime_.start();
  fs_.start_background();
  {
    OBS_SPAN("sim.event_loop");
    std::uint64_t before = engine.events_run();
    while (!runtime_.all_done()) {
      EIO_CHECK_MSG(engine.step(),
                    "engine drained before ranks finished — deadlock?");
    }
    OBS_COUNTER_ADD("sim.events_run", engine.events_run() - before);
  }
  fs_.stop_background();
  engine.run();
  result.job_time = runtime_.job_finish_time();
  monitor_.finish();  // flush the sink's last batch before harvesting
  result.trace = std::move(monitor_.trace());
  result.profile = monitor_.profile();
  result.fs_stats = fs_.stats();
  result.engine_events = engine.events_run();
  result.monitor_overhead = monitor_.accounted_overhead();
  if (injector_) result.fault_counts = injector_->counts();
  return result;
}

RunResult run_job(const JobSpec& spec) {
  RunInstance run(spec);
  return run.execute();
}

std::vector<RunResult> run_ensemble(JobSpec spec, std::size_t runs,
                                    std::size_t jobs) {
  ParallelEnsembleRunner runner(EnsembleOptions{.jobs = jobs});
  return runner.run_ensemble(std::move(spec), runs);
}

}  // namespace eio::workloads
