// Channel ablation: why the paper uses heavyweight SOAP for control but a
// lightweight RMI-style channel for high-frequency histogram polling.
// Measures round-trip cost of binary RPC (inproc + TCP) vs SOAP-over-HTTP
// (TCP), at the payload sizes a polling client actually sees. Wall time per
// call: the server's reactor and worker threads are part of the round trip.
#include <benchmark/benchmark.h>

#include "rpc/rpc.hpp"
#include "soap/soap.hpp"

using namespace ipa;

namespace {

ser::Bytes payload_of(std::size_t size) { return ser::Bytes(size, 0x5a); }

std::shared_ptr<rpc::Service> echo_service() {
  auto service = std::make_shared<rpc::Service>("Echo");
  service->register_method("echo", [](const rpc::CallContext&, const ser::Bytes& in) {
    return Result<ser::Bytes>(in);
  });
  return service;
}

void BM_RpcInproc(benchmark::State& state) {
  Uri endpoint;
  endpoint.scheme = "inproc";
  endpoint.host = "bench-rpc-inproc";
  rpc::RpcServer server(endpoint);
  server.add_service(echo_service());
  if (!server.start().is_ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  auto client = rpc::RpcClient::connect(server.endpoint());
  const ser::Bytes payload = payload_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto reply = client->call("Echo", "echo", payload);
    if (!reply.is_ok()) {
      state.SkipWithError("call failed");
      break;
    }
    benchmark::DoNotOptimize(*reply);
  }
  state.SetItemsProcessed(state.iterations());  // calls/s, gated in BENCH_batch.json
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
  server.stop();
}
BENCHMARK(BM_RpcInproc)->Arg(64)->Arg(4096)->Arg(65536)->UseRealTime();

void BM_RpcTcp(benchmark::State& state) {
  Uri endpoint = Uri::parse("tcp://127.0.0.1:0").value();
  rpc::RpcServer server(endpoint);
  server.add_service(echo_service());
  auto bound = server.start();
  if (!bound.is_ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  auto client = rpc::RpcClient::connect(*bound);
  const ser::Bytes payload = payload_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto reply = client->call("Echo", "echo", payload);
    if (!reply.is_ok()) {
      state.SkipWithError("call failed");
      break;
    }
    benchmark::DoNotOptimize(*reply);
  }
  state.SetItemsProcessed(state.iterations());  // calls/s, gated in BENCH_batch.json
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
  server.stop();
}
BENCHMARK(BM_RpcTcp)->Arg(64)->Arg(4096)->Arg(65536)->UseRealTime();

void BM_SoapTcp(benchmark::State& state) {
  soap::SoapServer server("127.0.0.1", 0);
  server.register_operation("Echo", "echo",
                            [](const soap::SoapContext&, const xml::Node& args) {
                              xml::Node reply("ipa:echoResponse");
                              reply.set_text(args.text());
                              return Result<xml::Node>(std::move(reply));
                            });
  auto bound = server.start();
  if (!bound.is_ok()) {
    state.SkipWithError("server start failed");
    return;
  }
  auto client = soap::SoapClient::connect(*bound);
  const std::string body(static_cast<std::size_t>(state.range(0)), 'z');
  for (auto _ : state) {
    xml::Node args("ipa:echo");
    args.set_text(body);
    auto reply = client->call("Echo", "echo", std::move(args));
    if (!reply.is_ok()) {
      state.SkipWithError("call failed");
      break;
    }
    benchmark::DoNotOptimize(*reply);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(body.size()));
  server.stop();
}
BENCHMARK(BM_SoapTcp)->Arg(64)->Arg(4096)->Arg(65536)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
