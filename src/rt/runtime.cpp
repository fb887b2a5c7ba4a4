#include "rt/runtime.hpp"

namespace fhp::rt {

Runtime::Runtime(RuntimeOptions options)
    : perf_(std::make_unique<perf::PerfContext>()),
      owned_pool_(options.pool == nullptr ? std::make_unique<mem::PagePool>()
                                          : nullptr),
      pool_(options.pool != nullptr ? options.pool : owned_pool_.get()),
      arena_(std::make_unique<par::ExecArena>(options.lanes)),
      // Resolved once: later environment changes cannot skew a
      // constructed tenant. The environment is read only when no value
      // is given (a bad FLASHHP_LAYOUT must not fail a runtime that names
      // its layout).
      layout_(options.layout.has_value() ? *options.layout
                                         : mesh::layout_from_environment()),
      policy_(options.policy.has_value() ? *options.policy
                                         : mem::policy_from_environment()),
      log_tag_(std::move(options.log_tag)) {
  env_.log_tag = log_tag_.empty() ? nullptr : log_tag_.c_str();
  arena_->set_lane_env(&env_);
  if (options.trace_sink != nullptr) set_trace_sink(options.trace_sink);
}

void Runtime::set_trace_sink(trace::Sink* sink) noexcept {
  env_.trace_sink = sink;
  env_.bind_trace = sink != nullptr;
}

trace::Sink* Runtime::trace_sink() const noexcept { return env_.trace_sink; }

Runtime::BindScope::BindScope(const Runtime& runtime) {
  if (runtime.env_.bind_trace) sink_.emplace(runtime.env_.trace_sink);
  if (!runtime.log_tag_.empty()) tag_.emplace(runtime.log_tag_.c_str());
}

}  // namespace fhp::rt
