// The columnar record format's contracts: decode(encode(x)) reproduces
// every record field INCLUDING the raw source token (so colfmt -> JSON
// conversion re-emits json_writer's exact bytes), the streaming reader
// and writer agree byte-for-byte with the buffer codec, the streaming
// merge over .amoc shard files is byte-identical to the same merge over
// memory sources and to the unsharded sweep — and the reader survives hostile input:
// truncation at EVERY byte boundary, a bit flip at EVERY byte, version
// skew, checksummed chunks claiming more rows than the header owes or the
// row cap allows, and foreign files all fail with a diagnostic, never
// garbage records, a crash or a huge allocation.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/colfmt.hpp"
#include "exp/merge.hpp"
#include "exp/record.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "svc/server.hpp"
#include "svc/worker_pool.hpp"
#include "memory_merge.hpp"
#include "util/fnv.hpp"

namespace amo {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A record array exercising every column encoding: u64, f64 (shortest
/// round-trip), strings with escapes, booleans, nulls, and raw tokens only
/// the verbatim fallback can carry. "1e+05" alone would be tag 1 (it is
/// json_writer::num(1e5)); "1.20" and "+1e3" are valid JSON numbers no
/// typed encoding re-renders, so the "odd" column goes verbatim.
const char* kTrickyJson =
    "[\n"
    "  {\"cell\": 0, \"count\": 18446744073709551615, \"x\": 0.1,"
    " \"neg\": -3, \"name\": \"a\\\"b\\\\c\\u0001\", \"flag\": true,"
    " \"gap\": null, \"odd\": 1e+05},\n"
    "  {\"cell\": 0, \"count\": 0, \"x\": 2.5e-308,"
    " \"neg\": -0.5, \"name\": \"\", \"flag\": false,"
    " \"gap\": null, \"odd\": 1.20},\n"
    "  {\"cell\": 1, \"count\": 7, \"x\": 1,"
    " \"neg\": -9007199254740993, \"name\": \"\\ud83d\\ude00 ok\","
    " \"flag\": true, \"gap\": null, \"odd\": +1e3}\n"
    "]\n";

std::vector<exp::record> tricky_records() {
  const exp::parse_result parsed = exp::parse_records(kTrickyJson);
  EXPECT_TRUE(parsed.ok()) << parsed.error;
  return parsed.records;
}

std::string encode_or_die(const std::vector<exp::record>& records) {
  std::string bytes;
  std::string error;
  EXPECT_TRUE(exp::colfmt_encode(records, bytes, error)) << error;
  return bytes;
}

void expect_same_records(const std::vector<exp::record>& a,
                         const std::vector<exp::record>& b) {
  ASSERT_EQ(a.size(), b.size());
  // render_records re-emits every raw token verbatim, so byte-equal
  // rendering means field-for-field identity including raws.
  EXPECT_EQ(exp::render_records(a), exp::render_records(b));
}

TEST(Colfmt, FormatForPathInfersFromExtension) {
  EXPECT_EQ(exp::format_for_path("out.amoc"), exp::record_format::colfmt);
  EXPECT_EQ(exp::format_for_path("dir.amoc/out"), exp::record_format::json);
  EXPECT_EQ(exp::format_for_path("out.json"), exp::record_format::json);
  EXPECT_EQ(exp::format_for_path(""), exp::record_format::json);
  EXPECT_EQ(exp::format_for_path(".amoc"), exp::record_format::colfmt);
}

TEST(Colfmt, RoundTripReproducesEveryRawToken) {
  const std::vector<exp::record> records = tricky_records();
  const std::string bytes = encode_or_die(records);
  EXPECT_TRUE(exp::is_colfmt(bytes));

  const exp::parse_result decoded = exp::colfmt_decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  expect_same_records(records, decoded.records);

  // The whole point: converting back to JSON is byte-identical to the
  // JSON that produced the records.
  EXPECT_EQ(exp::render_records(decoded.records),
            exp::render_records(records));
}

TEST(Colfmt, EncodeIsDeterministic) {
  const std::vector<exp::record> records = tricky_records();
  EXPECT_EQ(encode_or_die(records), encode_or_die(records));
}

TEST(Colfmt, EmptyArrayRoundTrips) {
  const std::string bytes = encode_or_die({});
  const exp::parse_result decoded = exp::colfmt_decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  EXPECT_TRUE(decoded.records.empty());
}

TEST(Colfmt, EncodeRejectsMixedSchemas) {
  const exp::parse_result parsed = exp::parse_records(
      "[{\"a\": 1, \"b\": 2}, {\"a\": 1, \"c\": 2}]");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  std::string bytes;
  std::string error;
  EXPECT_FALSE(exp::colfmt_encode(parsed.records, bytes, error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

TEST(Colfmt, SniffingLoaderReadsBothFormats) {
  const std::vector<exp::record> records = tricky_records();
  const std::string dir = ::testing::TempDir();
  const std::string jpath = dir + "/sniff.json";
  const std::string cpath = dir + "/sniff.amoc";
  spit(jpath, exp::render_records(records));
  spit(cpath, encode_or_die(records));

  for (const std::string& path : {jpath, cpath}) {
    const exp::parse_result loaded = exp::load_records_file(path.c_str());
    ASSERT_TRUE(loaded.ok()) << path << ": " << loaded.error;
    expect_same_records(records, loaded.records);
  }

  // decode_records: the buffer-level sniff.
  const exp::parse_result fromj = exp::decode_records(slurp(jpath));
  const exp::parse_result fromc = exp::decode_records(slurp(cpath));
  ASSERT_TRUE(fromj.ok()) << fromj.error;
  ASSERT_TRUE(fromc.ok()) << fromc.error;
  expect_same_records(fromj.records, fromc.records);

  const exp::parse_result missing = exp::load_records_file(
      (dir + "/no_such_file.amoc").c_str());
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error.find("no_such_file.amoc"), std::string::npos)
      << missing.error;
}

TEST(Colfmt, WriteRecordsFileAsRoundTrips) {
  const std::vector<exp::record> records = tricky_records();
  const std::string path = ::testing::TempDir() + "/as.amoc";
  std::string error;
  ASSERT_TRUE(exp::write_records_file_as(path.c_str(), records,
                                         exp::record_format::colfmt, error))
      << error;
  EXPECT_EQ(slurp(path), encode_or_die(records));
}

TEST(Colfmt, TruncationAtEveryByteIsDiagnosed) {
  const std::string bytes = encode_or_die(tricky_records());
  ASSERT_GT(bytes.size(), 100u);
  for (usize len = 0; len < bytes.size(); ++len) {
    const exp::parse_result r = exp::colfmt_decode(bytes.substr(0, len));
    EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_FALSE(r.error.empty()) << len;
  }
  // One byte too many is just as dead.
  const exp::parse_result over = exp::colfmt_decode(bytes + "x");
  EXPECT_FALSE(over.ok());
  EXPECT_NE(over.error.find("after the end marker"), std::string::npos)
      << over.error;
}

TEST(Colfmt, BitFlipAtEveryByteIsDiagnosed) {
  const std::string bytes = encode_or_die(tricky_records());
  for (usize i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    const exp::parse_result r = exp::colfmt_decode(bad);
    EXPECT_FALSE(r.ok()) << "flip at byte " << i << " decoded";
  }
}

TEST(Colfmt, TruncatedFileViaReaderNamesThePath) {
  const std::string bytes = encode_or_die(tricky_records());
  const std::string path = ::testing::TempDir() + "/trunc.amoc";
  spit(path, bytes.substr(0, bytes.size() - 12));
  const exp::parse_result r = exp::load_records_file(path.c_str());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("trunc.amoc"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("truncated"), std::string::npos) << r.error;
}

TEST(Colfmt, VersionSkewIsRefusedByName) {
  std::string bytes = encode_or_die(tricky_records());
  // Patch the version to 2 and re-seal the header checksum, so the ONLY
  // objection left is the version itself (the checksum must not mask it).
  bytes[4] = 2;
  usize header_end = 60;  // fixed part incl. column count
  const std::vector<exp::record> records = tricky_records();
  for (const exp::record_field& f : records[0].fields) {
    header_end += 2 + f.key.size();
  }
  const std::uint64_t sum =
      fnv1a64(std::string_view(bytes.data(), header_end));
  for (usize b = 0; b < 8; ++b) {
    bytes[header_end + b] = static_cast<char>((sum >> (8 * b)) & 0xff);
  }
  const exp::parse_result r = exp::colfmt_decode(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("version 2"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("version 1"), std::string::npos) << r.error;
}

TEST(Colfmt, ForeignFilesAreRejectedAtTheMagic) {
  for (const std::string& foreign :
       {std::string("PK\x03\x04 not a record file"), std::string("[]\n"),
        std::string("AMOD____wrong magic padded to header size______"),
        std::string()}) {
    const exp::parse_result r = exp::colfmt_decode(foreign);
    EXPECT_FALSE(r.ok());
  }
  const exp::parse_result r = exp::colfmt_decode("garbage");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("not a .amoc file"), std::string::npos) << r.error;
}

void put_le(std::string& out, std::uint64_t v, usize bytes) {
  for (usize b = 0; b < bytes; ++b) {
    out.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
  }
}

/// A hand-built .amoc image with VALID header and chunk checksums: the
/// header declares `declared` records over `columns` columns (c0, c1, ...),
/// and one chunk claims `rows` rows whose blocks are all null — zero
/// payload bytes however many rows the chunk claims.
std::string crafted_amoc(usize columns, std::uint64_t declared,
                         std::uint32_t rows) {
  std::string header = "AMOC";
  put_le(header, 1, 2);  // version
  put_le(header, 0, 2);  // flags
  for (int i = 0; i < 4; ++i) put_le(header, 0, 8);  // grid..replicas
  put_le(header, declared, 8);
  put_le(header, 1, 8);  // chunk_count
  put_le(header, columns, 4);
  for (usize c = 0; c < columns; ++c) {
    const std::string name = "c" + std::to_string(c);
    put_le(header, name.size(), 2);
    header += name;
  }
  put_le(header, fnv1a64(header), 8);

  std::string chunk = "CHNK";
  put_le(chunk, 0, 4);  // chunk_bytes, patched below
  put_le(chunk, ~std::uint64_t{0}, 8);  // no cell
  put_le(chunk, rows, 4);
  chunk.append(columns, '\x04');  // null blocks
  const usize total = chunk.size() + 8;
  for (usize b = 0; b < 4; ++b) {
    chunk[4 + b] = static_cast<char>((total >> (8 * b)) & 0xff);
  }
  put_le(chunk, fnv1a64(chunk), 8);
  return header + chunk + "AMOCEND\n";
}

TEST(Colfmt, CraftedImageWithinLimitsDecodes) {
  // The control for the hostile images below: crafted_amoc with an
  // honest row count decodes, so their failures are the row checks.
  const exp::parse_result r = exp::colfmt_decode(crafted_amoc(2, 3, 3));
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(r.records.size(), 3u);
  EXPECT_EQ(r.records[2].fields.size(), 2u);
}

TEST(Colfmt, ChunkRowsBeyondTheHeaderCountFailBeforeAllocating) {
  // Zero columns: nothing but the row count bounds the allocation.
  const exp::parse_result r =
      exp::colfmt_decode(crafted_amoc(0, 1, 0xFFFFFFFFu));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("owes only 1 more"), std::string::npos) << r.error;

  // Two honest-looking chunks' worth is still one too many.
  const exp::parse_result one_over = exp::colfmt_decode(crafted_amoc(1, 4, 5));
  ASSERT_FALSE(one_over.ok());
  EXPECT_NE(one_over.error.find("owes only 4 more"), std::string::npos)
      << one_over.error;
}

TEST(Colfmt, ChunkRowsAboveTheCapFailBeforeAllocating) {
  // The header owes 2^40 records, so only the per-chunk cap objects.
  const std::uint64_t huge = std::uint64_t{1} << 40;
  const exp::parse_result r =
      exp::colfmt_decode(crafted_amoc(1, huge, 0xFFFFFFFFu));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("chunk cap"), std::string::npos) << r.error;

  // The cap scales with the schema width: one row past it at 16 columns.
  const auto rows16 =
      static_cast<std::uint32_t>(exp::colfmt_max_chunk_values / 16 + 1);
  const exp::parse_result wide =
      exp::colfmt_decode(crafted_amoc(16, huge, rows16));
  ASSERT_FALSE(wide.ok());
  EXPECT_NE(wide.error.find("chunk cap"), std::string::npos) << wide.error;
}

TEST(Colfmt, StreamingReaderRejectsCraftedRowCounts) {
  const std::string path = ::testing::TempDir() + "/crafted.amoc";
  for (const std::string& bytes :
       {crafted_amoc(0, 1, 0xFFFFFFFFu),
        crafted_amoc(1, std::uint64_t{1} << 40, 0xFFFFFFFFu)}) {
    spit(path, bytes);
    exp::colfmt_reader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path.c_str(), error)) << error;
    std::vector<exp::record> chunk;
    bool end = false;
    EXPECT_FALSE(reader.next_chunk(chunk, end, error));
    EXPECT_NE(error.find("crafted.amoc"), std::string::npos) << error;
    EXPECT_TRUE(chunk.empty());
  }
}

TEST(Colfmt, StreamingReaderRejectsChunkLongerThanFile) {
  // A valid header, then a chunk frame declaring 4 GiB: the reader must
  // refuse it against the file size before allocating the chunk buffer.
  const std::string image = crafted_amoc(1, 1, 1);
  const usize header_len = 60 + 2 + 2 + 8;  // one column, "c0"
  std::string bytes = image.substr(0, header_len) + "CHNK";
  put_le(bytes, 0xFFFFFFFFu, 4);
  bytes.append(400, '\0');
  const std::string path = ::testing::TempDir() + "/long_chunk.amoc";
  spit(path, bytes);

  exp::colfmt_reader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path.c_str(), error)) << error;
  std::vector<exp::record> chunk;
  bool end = false;
  EXPECT_FALSE(reader.next_chunk(chunk, end, error));
  EXPECT_NE(error.find("long_chunk.amoc"), std::string::npos) << error;
  EXPECT_NE(error.find("offset " + std::to_string(header_len + 4)),
            std::string::npos)
      << error;
  EXPECT_NE(error.find("exceeds the " + std::to_string(bytes.size() - header_len) +
                       " bytes left"),
            std::string::npos)
      << error;
  EXPECT_TRUE(chunk.empty());

  // The buffer decoder reports the same violation.
  const exp::parse_result r = exp::colfmt_decode(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("bytes left in the file"), std::string::npos)
      << r.error;
}

TEST(Colfmt, WriterRefusesAChunkAboveTheCap) {
  // 1025 rows x 1024 columns is one row past the cap; sharing cell 0
  // puts them all in one chunk.
  exp::record row;
  row.fields.resize(1024);
  for (usize c = 1; c < row.fields.size(); ++c) {
    row.fields[c].key = "c" + std::to_string(c);
    row.fields[c].raw = "null";
  }
  row.fields[0].key = "cell";
  row.fields[0].type = exp::record_field::kind::number;
  row.fields[0].raw = "0";
  const std::vector<exp::record> rows(
      exp::colfmt_max_chunk_values / row.fields.size() + 1, row);
  std::string bytes;
  std::string error;
  EXPECT_FALSE(exp::colfmt_encode(rows, bytes, error));
  EXPECT_NE(error.find("chunk cap"), std::string::npos) << error;

  exp::colfmt_writer writer;
  const std::string path = ::testing::TempDir() + "/capped.amoc";
  ASSERT_TRUE(writer.open(path.c_str(), error)) << error;
  error.clear();
  EXPECT_FALSE(writer.add_chunk(rows, error));
  EXPECT_NE(error.find("chunk cap"), std::string::npos) << error;
}

TEST(Colfmt, StreamingReaderMatchesBufferDecode) {
  const std::vector<exp::record> records = tricky_records();
  const std::string path = ::testing::TempDir() + "/stream.amoc";
  spit(path, encode_or_die(records));

  exp::colfmt_reader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path.c_str(), error)) << error;
  EXPECT_EQ(reader.header().record_count, records.size());
  EXPECT_EQ(reader.header().chunk_count, 2u);  // cells 0 and 1
  ASSERT_EQ(reader.header().columns.size(), records[0].fields.size());
  for (usize i = 0; i < reader.header().columns.size(); ++i) {
    EXPECT_EQ(reader.header().columns[i], records[0].fields[i].key);
  }

  std::vector<exp::record> streamed;
  std::vector<exp::record> chunk;
  bool end = false;
  while (!end) {
    ASSERT_TRUE(reader.next_chunk(chunk, end, error)) << error;
    for (exp::record& r : chunk) streamed.push_back(std::move(r));
  }
  expect_same_records(records, streamed);
}

TEST(Colfmt, StreamingWriterMatchesBufferEncode) {
  const std::vector<exp::record> records = tricky_records();
  const std::string path = ::testing::TempDir() + "/writer.amoc";

  exp::colfmt_writer writer;
  std::string error;
  ASSERT_TRUE(writer.open(path.c_str(), error)) << error;
  // Same chunking rule as the buffer encoder: one chunk per cell run.
  ASSERT_TRUE(writer.add_chunk({records[0], records[1]}, error)) << error;
  ASSERT_TRUE(writer.add_chunk({records[2]}, error)) << error;
  ASSERT_TRUE(writer.finish(error)) << error;

  const std::string streamed = slurp(path);
  EXPECT_EQ(writer.bytes_written(), streamed.size());
  EXPECT_EQ(streamed, encode_or_die(records));
}

// --- the streaming merge over real sweep output ---

svc::job small_job(usize replicas) {
  svc::job j;
  j.scenarios = {"kk/random"};
  j.params.n = 64;
  j.params.m = 2;
  j.params.seeds = 2;
  j.params.replicas = replicas;
  j.scheduled_only = true;
  j.no_timing = true;
  return j;
}

TEST(Colfmt, StreamedAmocMergeIsByteIdenticalToTheSweep) {
  svc::worker_pool pool(1);
  const std::string expected = svc::execute_job(small_job(3), pool)
                                   .render_json();

  const std::string dir = ::testing::TempDir();
  std::vector<std::unique_ptr<exp::record_source>> sources;
  std::vector<std::vector<exp::record>> in_memory;
  for (usize i = 0; i < 3; ++i) {
    svc::job j = small_job(3);
    j.have_shard = true;
    j.shard = {i, 3};
    const svc::job_result r = svc::execute_job(j, pool);
    ASSERT_TRUE(r.ok()) << r.error;
    const exp::parse_result parsed = exp::parse_records(r.render_json());
    ASSERT_TRUE(parsed.ok()) << parsed.error;

    const std::string path =
        dir + "/colfmt_shard" + std::to_string(i) + ".amoc";
    std::string error;
    ASSERT_TRUE(exp::write_records_file_as(path.c_str(), parsed.records,
                                           exp::record_format::colfmt, error))
        << error;
    sources.push_back(exp::make_file_source(path));
    in_memory.push_back(parsed.records);
  }

  const exp::merge_result streamed = exp::merge_stream(std::move(sources));
  ASSERT_TRUE(streamed.ok()) << streamed.error;
  EXPECT_EQ(exp::render_records(streamed.records), expected);

  // Memory sources over the same records fold to the same bytes.
  const exp::merge_result memory = testing::merge_memory(in_memory);
  ASSERT_TRUE(memory.ok()) << memory.error;
  EXPECT_EQ(exp::render_records(memory.records), expected);
}

TEST(Colfmt, SinkStreamsTheSameAggregates) {
  svc::worker_pool pool(1);
  svc::job j = small_job(2);
  const svc::job_result whole = svc::execute_job(j, pool);
  const exp::parse_result parsed = exp::parse_records(whole.render_json());
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  j.have_shard = true;
  j.shard = {0, 1};
  // shard 0/1 takes the aggregate path, so feed real unit records instead:
  // two shards of the same job.
  std::vector<std::unique_ptr<exp::record_source>> sources;
  for (usize i = 0; i < 2; ++i) {
    svc::job s = small_job(2);
    s.have_shard = true;
    s.shard = {i, 2};
    const exp::parse_result sp =
        exp::parse_records(svc::execute_job(s, pool).render_json());
    ASSERT_TRUE(sp.ok()) << sp.error;
    sources.push_back(exp::make_memory_source(sp.records));
  }
  std::vector<exp::record> sunk;
  const exp::merge_result r = exp::merge_stream(
      std::move(sources),
      [&](exp::record&& rec, std::string&) {
        sunk.push_back(std::move(rec));
        return true;
      });
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.records.empty()) << "sink mode must not accumulate";
  expect_same_records(parsed.records, sunk);
}

TEST(Colfmt, MergeRefusesShardsOfDifferentGrids) {
  svc::worker_pool pool(1);
  std::vector<std::unique_ptr<exp::record_source>> sources;
  const std::string dir = ::testing::TempDir();
  for (usize i = 0; i < 2; ++i) {
    svc::job j = small_job(3);
    if (i == 1) j.params.n = 128;  // a different grid fingerprint
    j.have_shard = true;
    j.shard = {i, 2};
    const exp::parse_result parsed =
        exp::parse_records(svc::execute_job(j, pool).render_json());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const std::string path = dir + "/grid" + std::to_string(i) + ".amoc";
    std::string error;
    ASSERT_TRUE(exp::write_records_file_as(path.c_str(), parsed.records,
                                           exp::record_format::colfmt, error))
        << error;
    sources.push_back(exp::make_file_source(path));
  }
  const exp::merge_result r = exp::merge_stream(std::move(sources));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("disagrees"), std::string::npos) << r.error;
}

TEST(Colfmt, CorruptShardFailsTheStreamingMerge) {
  svc::worker_pool pool(1);
  svc::job j = small_job(2);
  j.have_shard = true;
  j.shard = {0, 2};
  const exp::parse_result parsed =
      exp::parse_records(svc::execute_job(j, pool).render_json());
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  std::string bytes = encode_or_die(parsed.records);
  bytes[bytes.size() / 2] =
      static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  const std::string path = ::testing::TempDir() + "/corrupt.amoc";
  spit(path, bytes);

  std::vector<std::unique_ptr<exp::record_source>> sources;
  sources.push_back(exp::make_file_source(path));
  const exp::merge_result r = exp::merge_stream(std::move(sources));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("corrupt.amoc"), std::string::npos) << r.error;
}

// --- the typed route: render_output encodes run reports directly ---

/// The block tag of every column in the first chunk of a .amoc image.
std::map<std::string, int> first_chunk_tags(const std::string& b) {
  const auto le = [&b](usize at, usize width) {
    std::uint64_t v = 0;
    for (usize i = width; i-- > 0;) {
      v = (v << 8) | static_cast<unsigned char>(b[at + i]);
    }
    return static_cast<usize>(v);
  };
  const usize columns = le(56, 4);
  usize pos = 60;
  std::vector<std::string> names;
  for (usize c = 0; c < columns; ++c) {
    const usize len = le(pos, 2);
    names.push_back(b.substr(pos + 2, len));
    pos += 2 + len;
  }
  pos += 8;  // header checksum
  const usize rows = le(pos + 16, 4);
  pos += 20;  // chunk frame
  std::map<std::string, int> tags;
  for (usize c = 0; c < columns; ++c) {
    const int tag = static_cast<unsigned char>(b[pos++]);
    tags[names[c]] = tag;
    if (tag == 0 || tag == 1) pos += 16 + 8 * rows;
    if (tag == 3) pos += (rows + 7) / 8;
    if (tag == 2 || tag == 5) {
      for (usize r = 0; r < rows; ++r) pos += 4 + le(pos, 4);
    }
  }
  return tags;
}

TEST(Colfmt, ExponentSpellingsPickTheirNormativeTags) {
  // json_writer::num(1e5) is "1e+05" — to_chars picks the shorter
  // scientific form — so f64 admits a lone 1e+05. "1e5" is valid JSON that
  // no typed decoder re-renders, so only verbatim carries it.
  EXPECT_EQ(exp::json_writer::num(1e5), "1e+05");
  for (const auto& [token, tag] :
       {std::pair<std::string, int>{"1e+05", 1}, {"1e5", 5}, {"100000", 0},
        {"1.20", 5}, {"+1e3", 5}}) {
    const exp::parse_result parsed =
        exp::parse_records("[{\"odd\": " + token + "}]");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const std::string bytes = encode_or_die(parsed.records);
    EXPECT_EQ(first_chunk_tags(bytes)["odd"], tag) << token;
    const exp::parse_result back = exp::colfmt_decode(bytes);
    ASSERT_TRUE(back.ok()) << back.error;
    EXPECT_EQ(exp::render_records(back.records),
              exp::render_records(parsed.records))
        << token;
  }
}

/// The reference route render_output replaced: render the JSON, parse it
/// back, encode the parsed records.
bool reference_colfmt(const svc::job_result& r, std::string& bytes) {
  const exp::parse_result parsed = exp::parse_records(r.render_json());
  std::string error;
  return parsed.ok() && exp::colfmt_encode(parsed.records, bytes, error);
}

void expect_direct_matches_reference(const svc::job_result& r,
                                     const std::string& what) {
  std::string direct;
  std::string reference;
  std::string error;
  ASSERT_TRUE(r.render_output(exp::record_format::colfmt, direct, error))
      << what << ": " << error;
  ASSERT_TRUE(reference_colfmt(r, reference)) << what;
  EXPECT_EQ(direct, reference) << what;
  const exp::parse_result back = exp::colfmt_decode(direct);
  ASSERT_TRUE(back.ok()) << what << ": " << back.error;
  EXPECT_EQ(exp::render_records(back.records), r.render_json()) << what;
}

TEST(Colfmt, RenderOutputMatchesTheParseAndEncodeRouteOnEveryScenario) {
  svc::worker_pool pool(2);
  for (const exp::scenario& sc : exp::scenario_registry()) {
    for (const usize replicas : {usize{1}, usize{8}}) {
      for (const bool sharded : {false, true}) {
        svc::job j;
        j.scenarios = {sc.name};
        j.params.n = 12;
        j.params.m = 2;
        j.params.seeds = 2;
        j.params.replicas = replicas;
        if (sharded) {
          j.have_shard = true;
          j.shard = {1, 3};
        }
        svc::job_result r = svc::execute_job(j, pool);
        ASSERT_TRUE(r.ok()) << sc.name << ": " << r.error;
        // no_timing only changes rendering: timed records add wall_seconds
        // and the job_wall_seconds / job_queue_seconds extras.
        for (const bool no_timing : {true, false}) {
          r.j.no_timing = no_timing;
          expect_direct_matches_reference(
              r, sc.name + " R=" + std::to_string(replicas) +
                     (sharded ? " sharded" : "") +
                     (no_timing ? " no-timing" : " timed"));
        }
      }
    }
  }
}

TEST(Colfmt, RenderOutputOfAnEmptyShardIsTheEmptyFile) {
  // One unit, shard 1/2: the shard owns nothing.
  svc::worker_pool pool(1);
  svc::job j = small_job(1);
  j.params.seeds = 1;
  j.have_shard = true;
  j.shard = {1, 2};
  const svc::job_result r = svc::execute_job(j, pool);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_TRUE(r.runs().empty());
  std::string direct;
  std::string error;
  ASSERT_TRUE(r.render_output(exp::record_format::colfmt, direct, error))
      << error;
  EXPECT_EQ(direct, encode_or_die({}));
  expect_direct_matches_reference(r, "empty shard");
}

/// A sharded job result built by hand: one cell, one unit per ratio.
svc::job_result hand_built(const std::vector<double>& ratios) {
  svc::job_result r;
  r.j.no_timing = true;
  r.sharded = true;
  r.cells_total = 1;
  r.units_total = ratios.size();
  r.grid = 0x0123456789abcdefULL;
  for (usize i = 0; i < ratios.size(); ++i) {
    exp::run_report rep;
    rep.label = "hand/built";
    rep.adversary = "random";
    rep.n = 8;
    rep.m = 2;
    rep.worst_pair_ratio = ratios[i];
    r.unit_reports.push_back(rep);
    r.units.push_back({i, 0, i, ratios.size()});
  }
  return r;
}

TEST(Colfmt, DoubleColumnsTakeTheFirstAdmittingTag) {
  std::string bytes;
  std::string error;
  // Every value spells as a canonical u64: tag 0, as the parsed route
  // classifies "0" and "3".
  const svc::job_result integral = hand_built({0.0, 3.0});
  ASSERT_TRUE(integral.render_output(exp::record_format::colfmt, bytes, error))
      << error;
  EXPECT_EQ(first_chunk_tags(bytes)["worst_pair_ratio"], 0);
  expect_direct_matches_reference(integral, "integral ratios");

  // One fractional value makes the whole block f64.
  const svc::job_result mixed = hand_built({0.0, 0.5, 2.0});
  ASSERT_TRUE(mixed.render_output(exp::record_format::colfmt, bytes, error))
      << error;
  EXPECT_EQ(first_chunk_tags(bytes)["worst_pair_ratio"], 1);
  expect_direct_matches_reference(mixed, "mixed ratios");
}

TEST(Colfmt, NonFiniteDoubleFailsClosed) {
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    const svc::job_result r = hand_built({1.0, bad});
    std::string bytes;
    std::string error;
    EXPECT_FALSE(r.render_output(exp::record_format::colfmt, bytes, error));
    EXPECT_NE(error.find("worst_pair_ratio"), std::string::npos) << error;
    EXPECT_NE(error.find("non-finite"), std::string::npos) << error;
    // The parse-and-encode route refuses the same document.
    EXPECT_FALSE(reference_colfmt(r, bytes));
  }
}

}  // namespace
}  // namespace amo
