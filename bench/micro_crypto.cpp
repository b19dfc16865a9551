// Microbenchmarks of the from-scratch crypto substrate. These calibrate
// the simulator's CPU cost model (DESIGN.md): real ECDSA verification
// on one core is what the per-unit cost constant stands for.
#include <benchmark/benchmark.h>

#include "chain/wallet.hpp"
#include "consensus/pof.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/ecdsa.hpp"
#include "crypto/signer.hpp"

namespace {

using namespace zlb;

void BM_Sha256_1KiB(benchmark::State& state) {
  const Bytes data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::sha256(BytesView(data.data(), data.size())));
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_EcdsaSign(benchmark::State& state) {
  const auto key = crypto::PrivateKey::from_seed(to_bytes("bench"));
  const Bytes msg = to_bytes("a 400-byte-ish transaction body stand-in");
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(BytesView(msg.data(), msg.size())));
  }
}
BENCHMARK(BM_EcdsaSign)->Unit(benchmark::kMicrosecond);

void BM_EcdsaVerify(benchmark::State& state) {
  const auto key = crypto::PrivateKey::from_seed(to_bytes("bench"));
  const auto pub = key.public_key();
  const Bytes msg = to_bytes("a 400-byte-ish transaction body stand-in");
  const auto sig = key.sign(BytesView(msg.data(), msg.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::verify(pub, BytesView(msg.data(), msg.size()), sig));
  }
}
BENCHMARK(BM_EcdsaVerify)->Unit(benchmark::kMicrosecond);

void BM_EcdsaVerifyPredecompressed(benchmark::State& state) {
  // The hot path once a consumer caches decompression (chain/utxo):
  // skips the square root per verify.
  const auto key = crypto::PrivateKey::from_seed(to_bytes("bench"));
  const auto pub = key.public_key();
  const auto q = crypto::decompress(BytesView(pub.data.data(), 33));
  const crypto::Hash32 digest =
      crypto::sha256(to_bytes("a 400-byte-ish transaction body stand-in"));
  const auto sig = key.sign_digest(digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify_digest(*q, digest, sig));
  }
}
BENCHMARK(BM_EcdsaVerifyPredecompressed)->Unit(benchmark::kMicrosecond);

void BM_EcdsaSchemeVerify(benchmark::State& state) {
  // The live vote path: a committee member's signature checked through
  // EcdsaScheme, whose fixed-window table for the member's key (built
  // on the warm-up verify, outside the timed loop) makes u1·G + u2·Q
  // doubling-free. Includes the SHA-256 of the message.
  crypto::EcdsaScheme scheme;
  const Bytes msg = to_bytes("a 130-byte-ish signed consensus vote stand-in");
  const Bytes sig = scheme.sign(1, BytesView(msg.data(), msg.size()));
  const BytesView msg_view(msg.data(), msg.size());
  const BytesView sig_view(sig.data(), sig.size());
  if (!scheme.verify(1, msg_view, sig_view)) {
    state.SkipWithError("committee signature did not verify");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.verify(1, msg_view, sig_view));
  }
}
BENCHMARK(BM_EcdsaSchemeVerify)->Unit(benchmark::kMicrosecond);

void BM_EcdsaBatchVerify64(benchmark::State& state) {
  // 64 independent signatures fanned across the shared thread pool —
  // the per-block shape the Blockchain Manager commits with. Items/s is
  // the per-signature rate.
  const auto key = crypto::PrivateKey::from_seed(to_bytes("bench"));
  const auto pub = key.public_key();
  const auto q = crypto::decompress(BytesView(pub.data.data(), 33));
  std::vector<std::pair<crypto::Hash32, crypto::Signature>> sigs;
  for (int i = 0; i < 64; ++i) {
    const crypto::Hash32 digest =
        crypto::sha256(to_bytes("batch tx " + std::to_string(i)));
    sigs.emplace_back(digest, key.sign_digest(digest));
  }
  crypto::BatchVerifier batch;
  for (auto _ : state) {
    for (const auto& [digest, sig] : sigs) batch.add(*q, digest, sig);
    benchmark::DoNotOptimize(batch.verify_all());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EcdsaBatchVerify64)->Unit(benchmark::kMicrosecond);

void BM_SimSchemeSignVerify(benchmark::State& state) {
  crypto::SimScheme scheme(64);
  const Bytes msg(130, 0x55);
  for (auto _ : state) {
    const Bytes sig = scheme.sign(3, BytesView(msg.data(), msg.size()));
    benchmark::DoNotOptimize(scheme.verify(3, BytesView(msg.data(),
                                                        msg.size()),
                                           BytesView(sig.data(), sig.size())));
  }
}
BENCHMARK(BM_SimSchemeSignVerify);

void BM_TransactionValidate(benchmark::State& state) {
  chain::UtxoSet utxos;
  chain::Wallet alice(to_bytes("alice"));
  chain::Wallet bob(to_bytes("bob"));
  utxos.mint(alice.address(), 1000);
  const auto tx = alice.pay(utxos, bob.address(), 100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(utxos.check(*tx, /*verify_sigs=*/true));
  }
}
BENCHMARK(BM_TransactionValidate)->Unit(benchmark::kMicrosecond);

void BM_PofVerify(benchmark::State& state) {
  crypto::SimScheme scheme(64);
  auto vote = [&](std::uint8_t v) {
    consensus::SignedVote sv;
    sv.signer = 4;
    sv.body = consensus::VoteBody{
        consensus::InstanceKey{}, 2, 1, consensus::VoteType::kAux, Bytes{v}};
    const Bytes sb = sv.body.signing_bytes();
    sv.signature = scheme.sign(4, BytesView(sb.data(), sb.size()));
    return sv;
  };
  const consensus::ProofOfFraud pof{vote(0), vote(1)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(consensus::verify_pof(pof, scheme));
  }
}
BENCHMARK(BM_PofVerify);

}  // namespace

BENCHMARK_MAIN();
