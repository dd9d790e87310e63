/**
 * @file
 * Wire-protocol codec tests for lp::server (server/protocol.hh):
 * encoder/decoder round-trips, incremental (truncated-prefix)
 * decoding, and the malformed-input contract -- oversized lengths,
 * unknown opcodes, length/opcode mismatches, inconsistent BATCH
 * shapes, and random garbage must yield Decode::Malformed (or
 * NeedMore for honest prefixes), never a crash or an over-read.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "server/client.hh"
#include "server/protocol.hh"

using namespace lp::server;

namespace
{

std::vector<std::uint8_t>
enc(const Request &r)
{
    std::vector<std::uint8_t> out;
    encodeRequest(r, out);
    return out;
}

std::vector<std::uint8_t>
enc(const Response &r)
{
    std::vector<std::uint8_t> out;
    encodeResponse(r, out);
    return out;
}

/** Overwrite the little-endian u32 length field of a frame. */
void
setLen(std::vector<std::uint8_t> &f, std::uint32_t len)
{
    for (int i = 0; i < 4; ++i)
        f[std::size_t(i)] = std::uint8_t(len >> (8 * i));
}

} // namespace

TEST(ServerProtocol, RequestRoundTrips)
{
    Request cases[4];
    cases[0].op = Op::Get;
    cases[0].id = 7;
    cases[0].key = 123;
    cases[1].op = Op::Put;
    cases[1].id = ~0ull;
    cases[1].key = 0;
    cases[1].value = 0xdeadbeefcafef00dull;
    cases[2].op = Op::Del;
    cases[2].id = 1;
    cases[2].key = ~0ull;  // sentinel-range keys are a SERVER-side
                           // (Status::Err) concern, not a codec one
    cases[3].op = Op::Metrics;
    cases[3].id = 42;

    for (const Request &in : cases) {
        const auto buf = enc(in);
        Request out;
        std::size_t used = 0;
        ASSERT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
                  Decode::Ok);
        EXPECT_EQ(used, buf.size());
        EXPECT_EQ(out.op, in.op);
        EXPECT_EQ(out.id, in.id);
        if (in.op == Op::Get || in.op == Op::Del ||
            in.op == Op::Put) {
            EXPECT_EQ(out.key, in.key);
        }
        if (in.op == Op::Put) {
            EXPECT_EQ(out.value, in.value);
        }
    }
}

TEST(ServerProtocol, BatchRoundTrip)
{
    Request in;
    in.op = Op::Batch;
    in.id = 99;
    for (std::uint64_t i = 0; i < 37; ++i)
        in.batch.push_back(BatchOp{i % 3 != 0, i * 11, i * 1000});

    const auto buf = enc(in);
    Request out;
    std::size_t used = 0;
    ASSERT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
              Decode::Ok);
    EXPECT_EQ(used, buf.size());
    ASSERT_EQ(out.batch.size(), in.batch.size());
    for (std::size_t i = 0; i < in.batch.size(); ++i) {
        EXPECT_EQ(out.batch[i].isPut, in.batch[i].isPut);
        EXPECT_EQ(out.batch[i].key, in.batch[i].key);
        if (in.batch[i].isPut) {
            EXPECT_EQ(out.batch[i].value, in.batch[i].value);
        }
    }
}

TEST(ServerProtocol, ResponseRoundTrips)
{
    Response ok;
    ok.status = Status::Ok;
    ok.id = 5;
    ok.hasValue = true;
    ok.value = 777;

    Response miss;
    miss.status = Status::NotFound;
    miss.id = 6;

    Response stats;
    stats.status = Status::Ok;
    stats.id = 8;
    stats.body = "{\"gets\":12,\"text\":\"\\\"quoted\\\"\"}";

    Response retry;
    retry.status = Status::Retry;
    retry.id = 9;

    Response fault;
    fault.status = Status::Fault;  // quarantined shard, read-only
    fault.id = 10;

    for (const Response &in : {ok, miss, stats, retry, fault}) {
        const auto buf = enc(in);
        Response out;
        std::size_t used = 0;
        ASSERT_EQ(decodeResponse(buf.data(), buf.size(), used, out),
                  Decode::Ok);
        EXPECT_EQ(used, buf.size());
        EXPECT_EQ(out.status, in.status);
        EXPECT_EQ(out.id, in.id);
        EXPECT_EQ(out.hasValue, in.hasValue);
        if (in.hasValue) {
            EXPECT_EQ(out.value, in.value);
        }
        EXPECT_EQ(out.body, in.body);
    }
}

TEST(ServerProtocol, PipelinedFramesDecodeInOrder)
{
    std::vector<std::uint8_t> stream;
    for (std::uint64_t i = 0; i < 10; ++i) {
        Request r;
        r.op = i % 2 ? Op::Put : Op::Get;
        r.id = i;
        r.key = i * 3;
        r.value = i * 7;
        encodeRequest(r, stream);
    }
    std::size_t at = 0;
    for (std::uint64_t i = 0; i < 10; ++i) {
        Request out;
        std::size_t used = 0;
        ASSERT_EQ(decodeRequest(stream.data() + at, stream.size() - at,
                                used, out),
                  Decode::Ok);
        EXPECT_EQ(out.id, i);
        at += used;
    }
    EXPECT_EQ(at, stream.size());
}

TEST(ServerProtocol, EveryTruncationIsNeedMore)
{
    // An honest prefix of a valid frame must never be Malformed (the
    // connection would be wrongly killed) and never Ok (the frame is
    // incomplete): exactly NeedMore, for every split point.
    Request r;
    r.op = Op::Batch;
    r.id = 3;
    r.batch = {BatchOp{true, 1, 2}, BatchOp{false, 3, 0}};
    const auto buf = enc(r);
    for (std::size_t n = 0; n < buf.size(); ++n) {
        Request out;
        std::size_t used = 0;
        EXPECT_EQ(decodeRequest(buf.data(), n, used, out),
                  Decode::NeedMore)
            << "prefix length " << n;
    }
}

TEST(ServerProtocol, OversizedLengthIsMalformed)
{
    auto buf = enc([] {
        Request r;
        r.op = Op::Get;
        r.id = 1;
        r.key = 2;
        return r;
    }());
    setLen(buf, std::uint32_t(maxFrameBytes + 1));
    Request out;
    std::size_t used = 0;
    // Malformed immediately -- the decoder must not wait for 1MiB+ of
    // bytes that will never arrive.
    EXPECT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
              Decode::Malformed);

    setLen(buf, 0);  // shorter than the mandatory op+id preamble
    EXPECT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
              Decode::Malformed);
}

TEST(ServerProtocol, LengthOpcodeMismatchIsMalformed)
{
    auto buf = enc([] {
        Request r;
        r.op = Op::Put;
        r.id = 1;
        r.key = 2;
        r.value = 3;
        return r;
    }());
    buf[4] = std::uint8_t(Op::Get);  // GET frames must be 17, not 25
    Request out;
    std::size_t used = 0;
    EXPECT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
              Decode::Malformed);

    buf[4] = 0;  // Header/unknown opcode
    EXPECT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
              Decode::Malformed);
    buf[4] = 200;
    EXPECT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
              Decode::Malformed);

    // Opcode 5 (the retired STATS) is unknown, even in the length-9
    // frame it used to have.
    auto bare = enc([] {
        Request r;
        r.op = Op::Metrics;
        r.id = 1;
        return r;
    }());
    ASSERT_EQ(decodeRequest(bare.data(), bare.size(), used, out),
              Decode::Ok);
    bare[4] = 5;
    EXPECT_EQ(decodeRequest(bare.data(), bare.size(), used, out),
              Decode::Malformed);
}

TEST(ServerProtocol, BatchShapeViolationsAreMalformed)
{
    Request r;
    r.op = Op::Batch;
    r.id = 1;
    r.batch = {BatchOp{true, 10, 20}, BatchOp{false, 30, 0}};
    const auto good = enc(r);

    {
        auto buf = good;
        buf[13] = 100;  // count says 100, body holds 2
        Request out;
        std::size_t used = 0;
        EXPECT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
                  Decode::Malformed);
    }
    {
        auto buf = good;
        buf[13] = 1;  // count says 1: trailing bytes after the ops
        Request out;
        std::size_t used = 0;
        EXPECT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
                  Decode::Malformed);
    }
    {
        auto buf = good;
        buf[17] = std::uint8_t(Op::Metrics);  // bad sub-opcode
        Request out;
        std::size_t used = 0;
        EXPECT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
                  Decode::Malformed);
    }
    {
        // count > maxBatchOps with a length field large enough to be
        // plausible: rejected by the count cap, not by reading ops.
        std::vector<std::uint8_t> buf(4 + 13 + 17, 0);
        setLen(buf, 13 + 17);
        buf[4] = std::uint8_t(Op::Batch);
        const std::uint32_t big = std::uint32_t(maxBatchOps + 1);
        for (int i = 0; i < 4; ++i)
            buf[std::size_t(13 + i)] = std::uint8_t(big >> (8 * i));
        Request out;
        std::size_t used = 0;
        EXPECT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
                  Decode::Malformed);
    }
}

TEST(ServerProtocol, ScanRoundTripsAndTruncationsAreNeedMore)
{
    Request in;
    in.op = Op::Scan;
    in.id = 31;
    in.key = 0xfeedfacec0ffee00ull;  // start_key
    in.limit = 77;

    const auto buf = enc(in);
    ASSERT_EQ(buf.size(), 4u + 21u);  // len + (op,id,start,limit)
    Request out;
    std::size_t used = 0;
    ASSERT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
              Decode::Ok);
    EXPECT_EQ(used, buf.size());
    EXPECT_EQ(out.op, Op::Scan);
    EXPECT_EQ(out.id, in.id);
    EXPECT_EQ(out.key, in.key);
    EXPECT_EQ(out.limit, in.limit);

    // Every honest prefix (a "truncated start_key" among them) is
    // NeedMore -- never Malformed, never Ok.
    for (std::size_t n = 0; n < buf.size(); ++n) {
        Request t;
        used = 0;
        EXPECT_EQ(decodeRequest(buf.data(), n, used, t),
                  Decode::NeedMore)
            << "prefix length " << n;
    }
}

TEST(ServerProtocol, ScanLimitViolationsAreMalformed)
{
    Request r;
    r.op = Op::Scan;
    r.id = 1;
    r.key = 5;
    r.limit = 1;
    const auto good = enc(r);

    {
        auto buf = good;
        for (int i = 0; i < 4; ++i)  // limit = 0
            buf[std::size_t(21 + i)] = 0;
        Request out;
        std::size_t used = 0;
        EXPECT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
                  Decode::Malformed);
    }
    {
        // limit just past the response cap -- the decoder rejects it
        // up front instead of letting the server truncate silently.
        auto buf = good;
        const auto big = std::uint32_t(maxScanRecords + 1);
        for (int i = 0; i < 4; ++i)
            buf[std::size_t(21 + i)] = std::uint8_t(big >> (8 * i));
        Request out;
        std::size_t used = 0;
        EXPECT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
                  Decode::Malformed);
    }
    {
        auto buf = good;  // huge limit (all ones)
        for (int i = 0; i < 4; ++i)
            buf[std::size_t(21 + i)] = 0xff;
        Request out;
        std::size_t used = 0;
        EXPECT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
                  Decode::Malformed);
    }
    {
        auto buf = good;  // wrong length for SCAN (GET's 17)
        setLen(buf, 17);
        buf.resize(4 + 17);
        Request out;
        std::size_t used = 0;
        EXPECT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
                  Decode::Malformed);
    }
    {
        // Exactly the cap is legal.
        Request capped = r;
        capped.limit = std::uint32_t(maxScanRecords);
        const auto buf = enc(capped);
        Request out;
        std::size_t used = 0;
        EXPECT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
                  Decode::Ok);
        EXPECT_EQ(out.limit, maxScanRecords);
    }
}

TEST(ServerProtocol, ScanBodyCodecRoundTripsAndRejectsCorruption)
{
    std::vector<ScanRecord> in;
    for (std::uint64_t i = 0; i < 37; ++i)
        in.push_back(ScanRecord{i * 101, ~i});

    const std::string body = encodeScanBody(in);
    EXPECT_EQ(body.size(), 4 + 16 * in.size());
    std::vector<ScanRecord> out;
    ASSERT_TRUE(decodeScanBody(body, out));
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(out[i].key, in[i].key);
        EXPECT_EQ(out[i].value, in[i].value);
    }

    // Empty result is a valid body.
    ASSERT_TRUE(decodeScanBody(encodeScanBody({}), out));
    EXPECT_TRUE(out.empty());

    // Corruptions: truncated header, count/size mismatch (both
    // directions), trailing garbage, count beyond the cap.
    EXPECT_FALSE(decodeScanBody("", out));
    EXPECT_FALSE(decodeScanBody(body.substr(0, 3), out));
    EXPECT_FALSE(decodeScanBody(body.substr(0, body.size() - 1), out));
    EXPECT_FALSE(decodeScanBody(body + "x", out));
    {
        std::string big = body;
        big[0] = char(0xff);  // count claims 0xff...25
        big[1] = char(0xff);
        EXPECT_FALSE(decodeScanBody(big, out));
    }
}

TEST(ServerProtocol, UnknownResponseStatusIsMalformed)
{
    Response r;
    r.status = Status::Ok;
    r.id = 4;
    auto buf = enc(r);
    buf[4] = 17;
    Response out;
    std::size_t used = 0;
    EXPECT_EQ(decodeResponse(buf.data(), buf.size(), used, out),
              Decode::Malformed);

    // Status::Aborted (5) is the last known status: exactly 5
    // decodes, 6 is Malformed -- an old client against a new server
    // fails loudly rather than misreading an abort reply.
    buf[4] = 4;
    ASSERT_EQ(decodeResponse(buf.data(), buf.size(), used, out),
              Decode::Ok);
    EXPECT_EQ(out.status, Status::Fault);
    buf[4] = 5;
    ASSERT_EQ(decodeResponse(buf.data(), buf.size(), used, out),
              Decode::Ok);
    EXPECT_EQ(out.status, Status::Aborted);
    buf[4] = 6;
    EXPECT_EQ(decodeResponse(buf.data(), buf.size(), used, out),
              Decode::Malformed);
}

TEST(ServerProtocol, GarbageNeverCrashesOrOverReads)
{
    // Random buffers, decoded behind an exact-size heap slice so any
    // over-read trips ASan when the sanitizer leg runs. Every outcome
    // must be a clean verdict; Ok must consume within bounds.
    std::mt19937_64 rng(20260806);
    for (int trial = 0; trial < 2000; ++trial) {
        const std::size_t n = std::size_t(rng() % 96);
        std::vector<std::uint8_t> raw(n);
        for (auto &b : raw)
            b = std::uint8_t(rng());
        // Bias some trials toward near-valid frames.
        if (n >= 5 && trial % 3 == 0) {
            setLen(raw, std::uint32_t(rng() % 40));
            raw[4] = std::uint8_t(rng() % 10);  // incl. Op::Txn
        }
        auto slice = std::make_unique<std::uint8_t[]>(n ? n : 1);
        if (n > 0)
            std::memcpy(slice.get(), raw.data(), n);

        Request rq;
        std::size_t used = 0;
        if (decodeRequest(slice.get(), n, used, rq) == Decode::Ok) {
            EXPECT_LE(used, n);
        }
        Response rs;
        used = 0;
        if (decodeResponse(slice.get(), n, used, rs) == Decode::Ok) {
            EXPECT_LE(used, n);
        }
    }
}

TEST(ServerProtocol, StatusNames)
{
    EXPECT_EQ(statusName(Status::Ok), "ok");
    EXPECT_EQ(statusName(Status::NotFound), "not-found");
    EXPECT_EQ(statusName(Status::Retry), "retry");
    EXPECT_EQ(statusName(Status::Err), "err");
    EXPECT_EQ(statusName(Status::Fault), "fault");
    EXPECT_EQ(statusName(Status::Aborted), "aborted");
}

TEST(ServerProtocol, RetryBackoffIsBoundedAndJittered)
{
    // The Retry backoff helper (server/client.hh): every delay stays
    // within [0, capDelayUs] no matter how many attempts, the
    // sequence is deterministic for a given state word, and distinct
    // state words decorrelate (full jitter, not lockstep).
    RetryPolicy p;
    p.maxAttempts = 8;
    p.baseDelayUs = 100;
    p.capDelayUs = 50000;

    std::uint64_t s1 = 1, s1again = 1, s2 = 2;
    bool anyDiffer = false;
    for (int attempt = 0; attempt < 64; ++attempt) {
        const std::uint64_t d1 = retryDelayUs(p, attempt, s1);
        const std::uint64_t d1b = retryDelayUs(p, attempt, s1again);
        const std::uint64_t d2 = retryDelayUs(p, attempt, s2);
        EXPECT_LE(d1, p.capDelayUs) << "attempt " << attempt;
        // Early attempts are bounded by the (doubling) base, so a
        // retry storm starts gentle: attempt 0 sleeps at most base.
        if (attempt == 0) {
            EXPECT_LE(d1, p.baseDelayUs);
        }
        EXPECT_EQ(d1, d1b) << "non-deterministic at " << attempt;
        anyDiffer = anyDiffer || d1 != d2;
    }
    EXPECT_TRUE(anyDiffer) << "two clients backed off in lockstep";

    // Degenerate policy: zero delays never divide by zero.
    RetryPolicy zero;
    zero.baseDelayUs = 0;
    zero.capDelayUs = 0;
    std::uint64_t s = 7;
    EXPECT_EQ(retryDelayUs(zero, 3, s), 0u);
}

TEST(ServerProtocol, TxnRequestRoundTripsAllSubOps)
{
    Request in;
    in.op = Op::Txn;
    in.id = 0x1122334455667788ull;
    in.txn.push_back({TxnOp::Kind::Get, 10, 0});
    in.txn.push_back({TxnOp::Kind::Put, 11, 0xdeadbeefull});
    in.txn.push_back({TxnOp::Kind::Del, 12, 0});
    in.txn.push_back({TxnOp::Kind::Add, 13, ~0ull});  // wrapping -1
    in.txn.push_back({TxnOp::Kind::Get, 10, 0});      // dup key is a
                                                      // codec no-op

    const auto buf = enc(in);
    // Frame: u32 len + u8 op + u64 id + u32 n + ops, where GET/DEL
    // entries are 9 bytes and PUT/ADD entries are 17.
    EXPECT_EQ(buf.size(), 4u + 1 + 8 + 4 + 3 * 9 + 2 * 17);

    Request out;
    std::size_t used = 0;
    ASSERT_EQ(decodeRequest(buf.data(), buf.size(), used, out),
              Decode::Ok);
    EXPECT_EQ(used, buf.size());
    EXPECT_EQ(out.op, Op::Txn);
    EXPECT_EQ(out.id, in.id);
    ASSERT_EQ(out.txn.size(), in.txn.size());
    for (std::size_t i = 0; i < in.txn.size(); ++i) {
        EXPECT_EQ(out.txn[i].kind, in.txn[i].kind) << "op " << i;
        EXPECT_EQ(out.txn[i].key, in.txn[i].key) << "op " << i;
        if (in.txn[i].kind == TxnOp::Kind::Put ||
            in.txn[i].kind == TxnOp::Kind::Add) {
            EXPECT_EQ(out.txn[i].value, in.txn[i].value) << "op " << i;
        }
    }

    // Exactly the op-count cap is legal.
    Request capped;
    capped.op = Op::Txn;
    capped.id = 3;
    for (std::size_t i = 0; i < maxTxnOps; ++i)
        capped.txn.push_back({TxnOp::Kind::Add, i, i});
    const auto cbuf = enc(capped);
    ASSERT_EQ(decodeRequest(cbuf.data(), cbuf.size(), used, out),
              Decode::Ok);
    EXPECT_EQ(out.txn.size(), maxTxnOps);
}

TEST(ServerProtocol, TxnEveryTruncationIsNeedMore)
{
    Request in;
    in.op = Op::Txn;
    in.id = 9;
    in.txn.push_back({TxnOp::Kind::Put, 1, 2});
    in.txn.push_back({TxnOp::Kind::Get, 3, 0});
    in.txn.push_back({TxnOp::Kind::Add, 4, 5});
    const auto buf = enc(in);

    // Every proper prefix is an honest partial read, never Malformed:
    // the length field promises more bytes and the decoder must wait
    // for them before judging the interior shape.
    for (std::size_t n = 0; n < buf.size(); ++n) {
        Request out;
        std::size_t used = 0;
        EXPECT_EQ(decodeRequest(buf.data(), n, used, out),
                  Decode::NeedMore)
            << "prefix " << n;
    }
}

TEST(ServerProtocol, TxnShapeViolationsAreMalformed)
{
    Request in;
    in.op = Op::Txn;
    in.id = 5;
    in.txn.push_back({TxnOp::Kind::Put, 1, 2});
    in.txn.push_back({TxnOp::Kind::Get, 3, 0});
    const auto good = enc(in);
    Request out;
    std::size_t used = 0;
    ASSERT_EQ(decodeRequest(good.data(), good.size(), used, out),
              Decode::Ok);

    // The op-count field lives at byte offset 13 (after len, op, id).
    const std::size_t countOff = 13;

    {
        // Count claims one more op than the body holds.
        auto bad = good;
        bad[countOff] = 3;
        EXPECT_EQ(decodeRequest(bad.data(), bad.size(), used, out),
                  Decode::Malformed);
    }
    {
        // Count claims fewer ops than the body holds (trailing bytes
        // inside the frame).
        auto bad = good;
        bad[countOff] = 1;
        EXPECT_EQ(decodeRequest(bad.data(), bad.size(), used, out),
                  Decode::Malformed);
    }
    {
        // A zero-op transaction is meaningless; reject it outright
        // rather than inventing an empty commit.
        auto bad = good;
        bad[countOff] = 0;
        EXPECT_EQ(decodeRequest(bad.data(), bad.size(), used, out),
                  Decode::Malformed);
    }
    {
        // Count beyond the cap is rejected from the count field alone
        // -- even though this frame's length could never hold it.
        auto bad = good;
        bad[countOff] = std::uint8_t(maxTxnOps + 1);
        EXPECT_EQ(decodeRequest(bad.data(), bad.size(), used, out),
                  Decode::Malformed);
    }
    {
        // Unknown sub-op kind byte (first op's kind is at offset 17).
        auto bad = good;
        bad[17] = 0;
        EXPECT_EQ(decodeRequest(bad.data(), bad.size(), used, out),
                  Decode::Malformed);
        bad[17] = 5;
        EXPECT_EQ(decodeRequest(bad.data(), bad.size(), used, out),
                  Decode::Malformed);
    }
    {
        // Trailing garbage covered by the length field.
        auto bad = good;
        bad.push_back(0xab);
        setLen(bad, std::uint32_t(bad.size() - 4));
        EXPECT_EQ(decodeRequest(bad.data(), bad.size(), used, out),
                  Decode::Malformed);
    }
    {
        // Length too short to even hold the count field.
        auto bad = good;
        setLen(bad, 1 + 8 + 2);
        EXPECT_EQ(decodeRequest(bad.data(), bad.size(), used, out),
                  Decode::Malformed);
    }
}

TEST(ServerProtocol, TxnReadsBodyCodecRoundTripsAndRejectsCorruption)
{
    std::vector<TxnRead> in;
    for (std::uint64_t i = 0; i < 7; ++i)
        in.push_back(TxnRead{i % 2 == 0, i * 1000003});

    const std::string body = encodeTxnReadsBody(in);
    EXPECT_EQ(body.size(), 4 + 9 * in.size());
    std::vector<TxnRead> out;
    ASSERT_TRUE(decodeTxnReadsBody(body, out));
    ASSERT_EQ(out.size(), in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(out[i].found, in[i].found);
        if (in[i].found) {
            EXPECT_EQ(out[i].value, in[i].value);
        }
    }

    // A read-only-free transaction has an empty (but present,
    // 4-byte) body; it can never be 8 bytes, so it never collides
    // with the GET value frame shape.
    const std::string empty = encodeTxnReadsBody({});
    EXPECT_EQ(empty.size(), 4u);
    ASSERT_TRUE(decodeTxnReadsBody(empty, out));
    EXPECT_TRUE(out.empty());

    // Corruptions mirror the SCAN body contract: truncated header,
    // count/size mismatch, trailing garbage, dirty found byte, count
    // beyond the cap.
    EXPECT_FALSE(decodeTxnReadsBody("", out));
    EXPECT_FALSE(decodeTxnReadsBody(body.substr(0, 3), out));
    EXPECT_FALSE(
        decodeTxnReadsBody(body.substr(0, body.size() - 1), out));
    EXPECT_FALSE(decodeTxnReadsBody(body + "x", out));
    {
        std::string dirty = body;
        dirty[4] = 2;  // found must be exactly 0 or 1
        EXPECT_FALSE(decodeTxnReadsBody(dirty, out));
    }
    {
        std::string big = body;
        big[0] = char(maxTxnOps + 1);
        big[1] = 0;
        EXPECT_FALSE(decodeTxnReadsBody(big, out));
    }
}
